package core

import (
	"net"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/dataservice"
	"repro/internal/device"
	"repro/internal/geom/genmodel"
	"repro/internal/renderservice"
	"repro/internal/transport"
)

// TestLoadReportingDrivesMigration closes the §3.2.7 loop over real
// sockets: a render service attached to the session's distributor
// renders (so it has a frame rate), streams periodic load reports to the
// data service over the wire protocol, and the distributor records them
// in the service's record, where the migration policy reads them.
func TestLoadReportingDrivesMigration(t *testing.T) {
	ds := dataservice.New(dataservice.Config{Name: "data"})
	sess, err := ds.CreateSessionFromMesh("s", "m", genmodel.Galleon(1200))
	if err != nil {
		t.Fatal(err)
	}
	dist := sess.NewDistributor(balance.DefaultThresholds())
	sess.AttachDistributor(dist)

	rs := renderservice.New(renderservice.Config{
		Name: "laptop", Device: device.CentrinoLaptop, Workers: 2,
	})
	if err := dist.AddService(&LocalHandle{Svc: rs}); err != nil {
		t.Fatal(err)
	}
	// Subscribe over one socket (keeps the replica fresh).
	subDS, subRS := net.Pipe()
	defer subDS.Close()
	defer subRS.Close()
	go ds.ServeConn(subDS)
	ready := make(chan *renderservice.Session, 1)
	go rs.SubscribeToData(subRS, "s", func(s *renderservice.Session) { ready <- s })
	replica := <-ready
	if _, err := replica.RenderFrame(64, 64, ""); err != nil {
		t.Fatal(err)
	}

	// Load reports flow over their own subscription socket.
	repDS, repRS := net.Pipe()
	defer repDS.Close()
	defer repRS.Close()
	go ds.ServeConn(repDS)
	repConn := transport.NewConn(repRS)
	if err := repConn.SendJSON(transport.MsgHello, transport.Hello{
		Role: "render-service", Name: "laptop-report", Session: "s",
	}); err != nil {
		t.Fatal(err)
	}
	go func() { // drain bootstrap + fan-out traffic
		for {
			if _, _, err := repConn.Receive(); err != nil {
				return
			}
		}
	}()

	stop := make(chan struct{})
	reporterDone := make(chan error, 1)
	go func() {
		reporterDone <- rs.StartLoadReporting(repConn, 3*time.Millisecond, stop)
	}()

	// Wait for the distributor to record the laptop's report.
	deadline := time.Now().Add(5 * time.Second)
	for dist.Health("laptop").FPS <= 0 {
		if time.Now().After(deadline) {
			t.Fatal("load report never reached the distributor")
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	if err := <-reporterDone; err != nil {
		t.Fatalf("reporter: %v", err)
	}
	// A healthy service triggers no migration.
	if moves := dist.PlanMigration(); len(moves) != 0 {
		t.Errorf("healthy service migrated: %v", moves)
	}
	// Input validation.
	if err := rs.StartLoadReporting(repConn, 0, stop); err == nil {
		t.Error("zero interval accepted")
	}
}
