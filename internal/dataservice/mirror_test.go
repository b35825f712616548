package dataservice

import (
	"testing"

	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/scene"
)

func TestMirrorReplicatesUpdates(t *testing.T) {
	primarySvc := New(Config{Name: "primary"})
	sess, err := primarySvc.CreateSessionFromMesh("skull", "skull", genmodel.Galleon(800))
	if err != nil {
		t.Fatal(err)
	}
	backupSvc := New(Config{Name: "backup"})
	m, _, err := MirrorSessionSince(sess, backupSvc)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot installed: identical version and cost.
	if m.Lag() != 0 {
		t.Fatalf("fresh mirror lag: %d", m.Lag())
	}
	if m.Backup().Snapshot().TotalCost() != sess.Snapshot().TotalCost() {
		t.Fatal("backup snapshot differs")
	}

	// Updates flow through.
	id := sess.AllocID()
	if err := sess.ApplyUpdate(&scene.AddNodeOp{
		Parent: scene.RootID, ID: id, Name: "late", Transform: mathx.Identity(),
	}, ""); err != nil {
		t.Fatal(err)
	}
	if m.Lag() != 0 {
		t.Errorf("lag after update: %d", m.Lag())
	}
	var found bool
	m.Backup().Scene(func(sc *scene.Scene) { found = sc.Node(id) != nil })
	if !found {
		t.Fatal("update not replicated")
	}

	// Camera mirrors too.
	cam := sess.Camera()
	cam.Eye = [3]float64{7, 7, 7}
	if err := sess.SetCamera(cam, ""); err != nil {
		t.Fatal(err)
	}
	if got := m.Backup().Camera().Eye; got != cam.Eye {
		t.Errorf("camera not mirrored: %v", got)
	}
	if m.Err() != nil {
		t.Errorf("replication error: %v", m.Err())
	}
}

func TestMirrorBackupServesItsOwnSubscribers(t *testing.T) {
	primarySvc := New(Config{Name: "primary"})
	sess, err := primarySvc.CreateSessionFromMesh("s", "m", genmodel.Galleon(500))
	if err != nil {
		t.Fatal(err)
	}
	backupSvc := New(Config{Name: "backup"})
	m, _, err := MirrorSessionSince(sess, backupSvc)
	if err != nil {
		t.Fatal(err)
	}
	// A client attached to the standby sees primary-originated updates.
	watcher := &recordingSub{}
	if _, err := m.Backup().Subscribe("standby-client", watcher); err != nil {
		t.Fatal(err)
	}
	if err := sess.ApplyUpdate(&scene.SetNameOp{ID: scene.RootID, Name: "renamed"}, ""); err != nil {
		t.Fatal(err)
	}
	if n, _ := watcher.counts(); n != 1 {
		t.Errorf("standby client got %d ops", n)
	}
}

func TestMirrorFailover(t *testing.T) {
	primarySvc := New(Config{Name: "primary"})
	sess, err := primarySvc.CreateSessionFromMesh("s", "m", genmodel.Galleon(500))
	if err != nil {
		t.Fatal(err)
	}
	backupSvc := New(Config{Name: "backup"})
	m, _, err := MirrorSessionSince(sess, backupSvc)
	if err != nil {
		t.Fatal(err)
	}
	preVersion := sess.Version()

	// "Primary dies": promote the backup.
	promoted, err := m.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if promoted.Version() != preVersion {
		t.Errorf("promoted version %d, want %d", promoted.Version(), preVersion)
	}
	// The promoted session accepts new work under the same name.
	id := promoted.AllocID()
	if err := promoted.ApplyUpdate(&scene.AddNodeOp{
		Parent: scene.RootID, ID: id, Transform: mathx.Identity(),
	}, ""); err != nil {
		t.Fatal(err)
	}
	// Double promote refused.
	if _, err := m.Promote(); err == nil {
		t.Error("double promote accepted")
	}
	// Post-promotion ops from the (zombie) primary are refused by the
	// mirror rather than silently applied.
	if err := m.SendUpdate(Update{Op: &scene.SetNameOp{ID: scene.RootID, Name: "zombie"}, Version: promoted.Version() + 1}); err == nil {
		t.Error("zombie primary op accepted after promotion")
	}
	// The promoted session is discoverable on the backup service.
	if got, ok := backupSvc.Session("s"); !ok || got != promoted {
		t.Error("promoted session not hosted by backup service")
	}
}

func TestMirrorErrors(t *testing.T) {
	if _, _, err := MirrorSessionSince(nil, New(Config{Name: "b"})); err == nil {
		t.Error("nil primary accepted")
	}
	primarySvc := New(Config{Name: "p"})
	sess, _ := primarySvc.CreateSession("s")
	if _, _, err := MirrorSessionSince(sess, nil); err == nil {
		t.Error("nil backup accepted")
	}
	backupSvc := New(Config{Name: "b"})
	if _, _, err := MirrorSessionSince(sess, backupSvc); err != nil {
		t.Fatal(err)
	}
	// Mirroring the same session twice onto one backup collides on the
	// session name.
	if _, _, err := MirrorSessionSince(sess, backupSvc); err == nil {
		t.Error("duplicate mirror accepted")
	}
}
