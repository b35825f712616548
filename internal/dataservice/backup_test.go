package dataservice_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dataservice"
	"repro/internal/dataservice/failover"
	"repro/internal/netsim"
	"repro/internal/scene"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// downSub is a subscriber that fails every delivery.
type downSub struct{}

func (downSub) SendUpdate(dataservice.Update) error    { return errors.New("sub down") }
func (downSub) SendCamera(transport.CameraState) error { return errors.New("sub down") }

// TestBackupSubscriberMissKeepsReplicating: a subscriber of a backup
// session that misses a delivery is the backup's to count. It neither
// fails the primary's commit nor cuts or ends the replication, on either
// transport: the in-process mirror and the standby over a socket.
func TestBackupSubscriberMissKeepsReplicating(t *testing.T) {
	for _, tr := range []struct {
		name string
		// follow starts replicating primary onto backupSvc, waits for the
		// bootstrap and returns the backup session and a check that the
		// replication is still up.
		follow func(t *testing.T, primarySvc *dataservice.Service, primary *dataservice.Session, backupSvc *dataservice.Service) (*dataservice.Session, func())
	}{
		{"mirror", func(t *testing.T, _ *dataservice.Service, primary *dataservice.Session, backupSvc *dataservice.Service) (*dataservice.Session, func()) {
			m, _, err := dataservice.MirrorSessionSince(primary, backupSvc)
			if err != nil {
				t.Fatal(err)
			}
			backup, _ := backupSvc.Session(primary.Name)
			return backup, func() {
				if got, want := m.AckedVersion(), primary.Version(); got != want {
					t.Errorf("mirror acked version %d, primary at %d (err %v)", got, want, m.Err())
				}
			}
		}},
		{"standby", func(t *testing.T, primarySvc *dataservice.Service, primary *dataservice.Session, backupSvc *dataservice.Service) (*dataservice.Session, func()) {
			st := &failover.Standby{Service: backupSvc, SessionName: primary.Name, Name: "standby"}
			// SimPipe buffers, so neither end's writes wait for the other to read.
			link := netsim.Link{BandwidthBps: 1e15, Efficiency: 1, Quality: 1}
			dsEnd, stEnd := netsim.SimPipe(vclock.NewVirtual(time.Unix(0, 0)), link, link)
			go primarySvc.ServeConn(dsEnd)
			done := make(chan error, 1)
			go func() {
				err := st.Run(context.Background(), stEnd)
				stEnd.Close() // as a redial loop would: the primary's next write fails
				done <- err
			}()
			t.Cleanup(func() { dsEnd.Close(); stEnd.Close(); <-done })
			if !awaitVersion(t, st.Applied, primary.Version()) {
				t.FailNow()
			}
			backup, _ := backupSvc.Session(primary.Name)
			return backup, func() {
				select {
				case err := <-done:
					done <- err // for the cleanup
					t.Errorf("the standby's stream ended: %v", err)
				default:
				}
			}
		}},
	} {
		t.Run(tr.name, func(t *testing.T) {
			primarySvc := dataservice.New(dataservice.Config{Name: "primary"})
			primary, err := primarySvc.CreateSession("s")
			if err != nil {
				t.Fatal(err)
			}
			rename := func(name string) error {
				return primary.ApplyUpdate(&scene.SetNameOp{ID: scene.RootID, Name: name}, "")
			}
			if err := rename("seed"); err != nil {
				t.Fatal(err)
			}
			met := telemetry.NewRegistry(vclock.Real{})
			backupSvc := dataservice.New(dataservice.Config{Name: "backup", Metrics: met})
			backup, up := tr.follow(t, primarySvc, primary, backupSvc)
			if _, err := backup.Subscribe("backup-client", downSub{}); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"one", "two"} {
				if err := rename(name); err != nil {
					t.Errorf("commit %q on the primary = %v", name, err)
				}
			}
			awaitVersion(t, backup.Version, primary.Version())
			up()
			if n := met.Snapshot().CounterValue("backup", "fanout_errors_total", telemetry.PeerLabel("backup-client")); n != 1 {
				t.Errorf("backup fanout_errors_total{backup-client} = %d, want 1", n)
			}
		})
	}
}

// awaitVersion waits for version to read want, and reports whether it did.
func awaitVersion(t *testing.T, version func() uint64, want uint64) bool {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); version() != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Errorf("backup stuck at version %d, primary at %d", version(), want)
			return false
		}
	}
	return true
}
