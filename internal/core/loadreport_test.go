package core

import (
	"context"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/dataservice"
	"repro/internal/device"
	"repro/internal/geom/genmodel"
	"repro/internal/renderservice"
)

// TestLoadReportingDrivesMigration closes the §3.2.7 loop over a socket
// the way raverender -report-interval does: a render service attached to
// the session's distributor subscribes with SubscribeOpts.ReportInterval,
// renders (so it has a frame rate), and its subscription heartbeat
// streams load reports to the data service, which records them in the
// service's peer record, where the migration policy reads them.
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
	dataEnds := make(chan net.Conn, 1)
	dial := func() (io.ReadWriteCloser, error) {
		dsEnd, rsEnd := net.Pipe()
		dataEnds <- dsEnd
		go ds.ServeConn(dsEnd)
		return rsEnd, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan *renderservice.Session, 1)
	subErr := make(chan error, 1)
	go func() {
		subErr <- rs.SubscribeToDataResilient(ctx, dial, "s", renderservice.SubscribeOpts{ReportInterval: 3 * time.Millisecond},
			func(s *renderservice.Session) { ready <- s })
	}()
	replica := <-ready
	if _, err := replica.RenderFrame(64, 64, ""); err != nil {
		t.Fatal(err)
	}

	// Wait for the distributor to record the laptop's report.
	deadline := time.Now().Add(5 * time.Second)
	for dist.Health("laptop").FPS <= 0 {
		if time.Now().After(deadline) {
			t.Fatal("load report never reached the distributor")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	(<-dataEnds).Close()
	select {
	case <-subErr:
	case <-time.After(5 * time.Second):
		t.Fatal("subscription did not end after cancel")
	}
	// A healthy service triggers no migration.
	if moves := dist.PlanMigration(); len(moves) != 0 {
		t.Errorf("healthy service migrated: %v", moves)
	}
}
