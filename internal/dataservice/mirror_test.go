package dataservice

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/scene"
	"repro/internal/telemetry"
	"repro/internal/vclock"
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
	backup, _ := backupSvc.Session("skull")
	// Snapshot installed: identical version and cost.
	if m.AckedVersion() != sess.Version() {
		t.Fatalf("fresh mirror acked %d, primary at %d", m.AckedVersion(), sess.Version())
	}
	if backup.Snapshot().TotalCost() != sess.Snapshot().TotalCost() {
		t.Fatal("backup snapshot differs")
	}

	// Updates flow through.
	id := sess.AllocID()
	if err := sess.ApplyUpdate(&scene.AddNodeOp{
		Parent: scene.RootID, ID: id, Name: "late", Transform: mathx.Identity(),
	}, ""); err != nil {
		t.Fatal(err)
	}
	if m.AckedVersion() != sess.Version() {
		t.Errorf("after an update the mirror acked %d, primary at %d", m.AckedVersion(), sess.Version())
	}
	var found bool
	backup.Scene(func(sc *scene.Scene) { found = sc.Node(id) != nil })
	if !found {
		t.Fatal("update not replicated")
	}

	// Camera mirrors too.
	cam := sess.Camera()
	cam.Eye = [3]float64{7, 7, 7}
	if err := sess.SetCamera(cam, ""); err != nil {
		t.Fatal(err)
	}
	if got := backup.Camera().Eye; got != cam.Eye {
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
	if _, _, err := MirrorSessionSince(sess, backupSvc); err != nil {
		t.Fatal(err)
	}
	// A client attached to the standby sees primary-originated updates.
	watcher := &recordingSub{}
	backup, _ := backupSvc.Session("s")
	if _, err := backup.Subscribe("standby-client", watcher); err != nil {
		t.Fatal(err)
	}
	if err := sess.ApplyUpdate(&scene.SetNameOp{ID: scene.RootID, Name: "renamed"}, ""); err != nil {
		t.Fatal(err)
	}
	if n, _ := watcher.counts(); n != 1 {
		t.Errorf("standby client got %d ops", n)
	}
}

// TestMirrorBackupReadOnlyUntilPromoted: a mirror's backup takes writes
// only from its primary until it is promoted; a detached backup keeps
// refusing them.
func TestMirrorBackupReadOnlyUntilPromoted(t *testing.T) {
	primarySvc := New(Config{Name: "primary"})
	sess, err := primarySvc.CreateSessionFromMesh("s", "m", genmodel.Galleon(500))
	if err != nil {
		t.Fatal(err)
	}
	write := func(backup *Session) error {
		return backup.ApplyUpdate(&scene.SetNameOp{ID: scene.RootID, Name: "direct"}, "")
	}
	backupSvc := New(Config{Name: "backup"})
	m, _, err := MirrorSessionSince(sess, backupSvc)
	if err != nil {
		t.Fatal(err)
	}
	backup, _ := backupSvc.Session("s")
	if err := write(backup); !errors.Is(err, ErrReadOnly) {
		t.Errorf("write to an unpromoted backup = %v, want ErrReadOnly", err)
	}
	promoted, err := m.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if err := write(promoted); err != nil {
		t.Errorf("write to the promoted backup = %v", err)
	}

	otherSvc := New(Config{Name: "other"})
	detached, _, err := MirrorSessionSince(sess, otherSvc)
	if err != nil {
		t.Fatal(err)
	}
	detached.Detach()
	backup, _ = otherSvc.Session("s")
	if err := write(backup); !errors.Is(err, ErrReadOnly) {
		t.Errorf("write to a detached backup = %v, want ErrReadOnly", err)
	}
}

// TestPromoteWhileCommitting: an op the primary commits while its mirror
// is promoted lands on the backup before Promote returns or not at all.
func TestPromoteWhileCommitting(t *testing.T) {
	sess, err := New(Config{Name: "primary"}).CreateSession("s")
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := MirrorSessionSince(sess, New(Config{Name: "backup"}))
	if err != nil {
		t.Fatal(err)
	}
	reach := func(v uint64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); sess.Version() < v; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("primary stuck at version %d, want %d", sess.Version(), v)
			}
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// After the promotion the mirror misses every op; each is
				// committed on the primary all the same.
				if err := sess.ApplyUpdate(&scene.SetNameOp{ID: scene.RootID, Name: "x"}, ""); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	reach(50)
	promoted, err := m.Promote()
	if err != nil {
		t.Fatal(err)
	}
	at := promoted.Version()
	reach(at + 50)
	close(stop)
	wg.Wait()
	if v := promoted.Version(); v != at {
		t.Errorf("the promoted backup moved from version %d to %d with no write of its own", at, v)
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

// newReplicaFixture builds a primary session with some scene content
// plus n backup services tagged with the given regions, all sharing one
// metrics registry.
func newReplicaFixture(t *testing.T, primaryRegion string, regions ...string) (*Session, []*Service, *telemetry.Registry) {
	t.Helper()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	metrics := telemetry.NewRegistry(clk)
	prim := New(Config{Name: "ds-prim", Clock: clk, Region: primaryRegion, Metrics: metrics})
	sess, err := prim.CreateSession("skull")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		addNode(t, sess, fmt.Sprintf("n%d", i))
	}
	var backups []*Service
	for i, region := range regions {
		backups = append(backups, New(Config{
			Name: fmt.Sprintf("ds-bk%d", i), Clock: clk, Region: region, Metrics: metrics,
		}))
	}
	return sess, backups, metrics
}

// addNode commits one AddNodeOp on sess.
func addNode(t *testing.T, sess *Session, name string) {
	t.Helper()
	if err := sess.ApplyUpdate(&scene.AddNodeOp{
		Parent: scene.RootID, ID: sess.AllocID(), Name: name, Transform: mathx.Identity(),
	}, ""); err != nil {
		t.Fatal(err)
	}
}

// TestMirrorAttachDetachResume: the first mirror of a session onto a
// backup bootstraps from a snapshot, ops reach every mirror, a detached
// copy freezes, and mirroring it again resumes gap-only — none of it
// counted in the client-visible bootstrap stats.
func TestMirrorAttachDetachResume(t *testing.T) {
	sess, backups, _ := newReplicaFixture(t, "eu", "eu", "us")
	var mirrors []*Mirror
	for i, svc := range backups {
		m, resumed, err := MirrorSessionSince(sess, svc)
		if err != nil {
			t.Fatalf("mirror onto backup %d: %v", i, err)
		}
		if resumed {
			t.Errorf("first mirror onto backup %d must be a snapshot bootstrap", i)
		}
		mirrors = append(mirrors, m)
	}

	// Ops fan out to every mirror.
	addNode(t, sess, "x")
	want := sess.Version()
	for i, m := range mirrors {
		if ver := m.AckedVersion(); ver != want {
			t.Errorf("mirror %d acked %d, want %d", i, ver, want)
		}
	}

	mirrors[0].Detach()
	// A detached copy stops following but keeps its frozen state.
	frozen, _ := backups[0].Session("skull")
	addNode(t, sess, "y")
	if frozen.Version() != want {
		t.Errorf("detached copy moved to %d, want frozen at %d", frozen.Version(), want)
	}
	if ver := mirrors[1].AckedVersion(); ver != sess.Version() {
		t.Errorf("attached mirror acked %d, want %d", ver, sess.Version())
	}

	// Mirroring again resumes gap-only: the primary history covers the gap.
	_, resumed, err := MirrorSessionSince(sess, backups[0])
	if err != nil {
		t.Fatalf("re-mirror: %v", err)
	}
	if !resumed {
		t.Fatalf("re-mirror with contiguous history must resume gap-only")
	}
	if frozen.Version() != sess.Version() {
		t.Errorf("resumed copy at %d, want %d", frozen.Version(), sess.Version())
	}
	// Mirror traffic stays out of the client-visible bootstrap stats.
	if snaps, resumes := sess.BootstrapStats(); snaps != 0 || resumes != 0 {
		t.Errorf("mirror bootstraps leaked into BootstrapStats: %d snapshots, %d resumes", snaps, resumes)
	}
}

// TestMirrorConcurrentOpsDuringAttach: the race MirrorSessionSince must
// survive — ops committed while the bootstrap is taken. They follow the
// bootstrap in the mirror's outbox, so the copy converges on the
// primary's exact version.
func TestMirrorConcurrentOpsDuringAttach(t *testing.T) {
	sess, backups, _ := newReplicaFixture(t, "eu", "eu")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			_ = sess.ApplyUpdate(&scene.AddNodeOp{
				Parent: scene.RootID, ID: sess.AllocID(),
				Name: fmt.Sprintf("c%d", i), Transform: mathx.Identity(),
			}, "")
		}
	}()
	m, _, err := MirrorSessionSince(sess, backups[0])
	if err != nil {
		t.Fatalf("mirror under write load: %v", err)
	}
	wg.Wait()
	copySess, _ := backups[0].Session("skull")
	if copySess.Version() != sess.Version() {
		t.Fatalf("copy at %d, primary at %d — op lost during bootstrap", copySess.Version(), sess.Version())
	}
	if acked := m.AckedVersion(); acked != sess.Version() {
		t.Fatalf("acked %d, want %d", acked, sess.Version())
	}
}

func TestBootstrapBytesLabelling(t *testing.T) {
	sess, backups, metrics := newReplicaFixture(t, "eu/a", "eu/b", "us/a")
	for _, svc := range backups {
		if _, _, err := MirrorSessionSince(sess, svc); err != nil {
			t.Fatal(err)
		}
	}
	local := metrics.Counter("ds-prim", "bootstrap_bytes_total", "local").Value()
	cross := metrics.Counter("ds-prim", "bootstrap_bytes_total", "cross").Value()
	if local == 0 {
		t.Errorf("eu/a→eu/b bootstrap must count as local (same region)")
	}
	if cross == 0 {
		t.Errorf("eu/a→us/a bootstrap must count as cross-region")
	}
}
