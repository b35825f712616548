package dataservice

import (
	"errors"
	"testing"
	"time"

	"repro/internal/dataservice/wal"
	"repro/internal/mathx"
	"repro/internal/scene"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// TestJournalFaultTyped: a disk failure under the journal surfaces from
// ApplyUpdate as ErrJournalFault (the signal the fleet's evacuation
// machinery keys on) and is counted in the WAL fault telemetry.
func TestJournalFaultTyped(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	metrics := telemetry.NewRegistry(clk)
	svc := New(Config{Name: "data", Clock: clk, Metrics: metrics})
	sess, err := svc.CreateSession("sick")
	if err != nil {
		t.Fatal(err)
	}
	plan := wal.NewStoreFaults(3)
	store := wal.NewFaultStore(wal.NewMemStore(), plan)
	if err := sess.StartJournal(store, 0); err != nil {
		t.Fatal(err)
	}
	id := sess.AllocID()
	if err := sess.ApplyUpdate(&scene.AddNodeOp{Parent: scene.RootID, ID: id, Name: "n", Transform: mathx.Identity()}, "c"); err != nil {
		t.Fatal(err)
	}
	healthyVersion := sess.Version()

	plan.SickNow()
	op := &scene.SetTransformOp{ID: id, Transform: mathx.Translate(mathx.V3(1, 0, 0))}
	err = sess.ApplyUpdate(op, "c")
	if !errors.Is(err, ErrJournalFault) {
		t.Fatalf("sick-disk apply = %v, want ErrJournalFault", err)
	}
	if !errors.Is(err, wal.ErrDiskIO) {
		t.Errorf("fault does not carry the disk cause: %v", err)
	}
	snap := metrics.Snapshot()
	if n := snap.CounterValue("data", "wal_append_faults_total", ""); n != 1 {
		t.Errorf("wal_append_faults_total = %d, want 1", n)
	}
	if m, ok := snap.Get("data", "wal_poisoned", ""); !ok || m.Value != 1 {
		t.Errorf("wal_poisoned gauge not raised: %+v ok=%v", m, ok)
	}
	// The journal is sticky-poisoned: later writes fail too, and every
	// failure counts.
	if err := sess.ApplyUpdate(op, "c"); !errors.Is(err, ErrJournalFault) {
		t.Fatalf("post-poison apply = %v, want ErrJournalFault", err)
	}
	if n := metrics.Snapshot().CounterValue("data", "wal_append_faults_total", ""); n != 2 {
		t.Errorf("wal_append_faults_total = %d after second refusal, want 2", n)
	}
	_ = healthyVersion
}

// corruptedJournal journals count ops through a FaultStore that flips
// bits in a mid-log record, returning the inner store (as a crash would
// leave it) and the last acked version.
func corruptedJournal(t *testing.T, svc *Service) (*wal.MemStore, *Session, uint64) {
	t.Helper()
	sess, err := svc.CreateSession("victim")
	if err != nil {
		t.Fatal(err)
	}
	mem := wal.NewMemStore()
	plan := wal.NewStoreFaults(11)
	// StartJournal's Create is ops 0..3; appends are (4,5), (6,7), ...
	// Flip the second op record: intact records follow it.
	plan.FlipBits(6)
	if err := sess.StartJournal(wal.NewFaultStore(mem, plan), 0); err != nil {
		t.Fatal(err)
	}
	var ids []scene.NodeID
	for i := 0; i < 2; i++ {
		id := sess.AllocID()
		if err := sess.ApplyUpdate(&scene.AddNodeOp{Parent: scene.RootID, ID: id, Name: "n", Transform: mathx.Identity()}, "c"); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 2; i++ {
		op := &scene.SetTransformOp{ID: ids[i%2], Transform: mathx.Translate(mathx.V3(float64(i+1), 0, 0))}
		if err := sess.ApplyUpdate(op, "c"); err != nil {
			t.Fatal(err)
		}
	}
	return mem, sess, sess.Version()
}

// TestRecoverSessionRefusesCorrupt: mid-log corruption must never
// silently recover to the stale prefix — RecoverSession propagates
// wal.ErrLogCorrupt and creates no half-recovered session.
func TestRecoverSessionRefusesCorrupt(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	svcA := New(Config{Name: "node-a", Clock: clk})
	mem, _, _ := corruptedJournal(t, svcA)

	reborn := New(Config{Name: "node-a2", Clock: clk})
	_, _, err := reborn.RecoverSession("victim", mem, 0)
	if !errors.Is(err, wal.ErrLogCorrupt) {
		t.Fatalf("corrupt journal recovered: err = %v, want ErrLogCorrupt", err)
	}
	if _, ok := reborn.Session("victim"); ok {
		t.Fatal("refused recovery left a half-built session behind")
	}
}

// TestRecoverSessionOrBootstrap: the full choreography — local recovery
// when the journal is trustworthy, replica bootstrap when it is not.
func TestRecoverSessionOrBootstrap(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	metrics := telemetry.NewRegistry(clk)
	svcA := New(Config{Name: "node-a", Clock: clk, Metrics: metrics})
	mem, prim, version := corruptedJournal(t, svcA)

	// A replica on node-b followed the session the whole time.
	svcB := New(Config{Name: "node-b", Clock: clk, Region: "eu", Metrics: metrics})
	m, _, err := MirrorSessionSince(prim, svcB)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.AckedVersion(); got != version {
		t.Fatalf("replica acked %d, want %d", got, version)
	}

	// node-a crashes and comes back: local recovery is refused (the
	// corruption), so it bootstraps from the replica instead.
	reborn := New(Config{Name: "node-a2", Clock: clk, Metrics: metrics})
	sources := func() []BootstrapSource {
		return []BootstrapSource{{Name: "node-b", Svc: svcB}}
	}
	crashed := mem.Crashed()
	sess, from, err := reborn.RecoverSessionOrBootstrap("victim", crashed, 0, sources)
	if err != nil {
		t.Fatalf("bootstrap failed: %v", err)
	}
	if from != "node-b" {
		t.Fatalf("bootstrapped from %q, want node-b", from)
	}
	if sess.Version() != version {
		t.Fatalf("bootstrapped to version %d, want the replica's %d", sess.Version(), version)
	}
	// The fresh journal took over the store: new ops commit durably and
	// a plain local recovery now works.
	op := &scene.SetTransformOp{ID: 2, Transform: mathx.Translate(mathx.V3(9, 9, 9))}
	if err := sess.ApplyUpdate(op, "after"); err != nil {
		t.Fatalf("post-bootstrap update: %v", err)
	}
	reread := New(Config{Name: "node-a3", Clock: clk})
	again, rec, err := reread.RecoverSession("victim", crashed, 0)
	if err != nil {
		t.Fatalf("recovery after bootstrap rewrite: %v", err)
	}
	if rec.Torn != nil || again.Version() != version+1 {
		t.Errorf("re-recovery at %d (torn %v), want clean %d", again.Version(), rec.Torn, version+1)
	}

	// A healthy journal never consults the sources.
	healthy := New(Config{Name: "node-c", Clock: clk})
	hs, herr := healthy.CreateSession("fine")
	if herr != nil {
		t.Fatal(herr)
	}
	hstore := wal.NewMemStore()
	if err := hs.StartJournal(hstore, 0); err != nil {
		t.Fatal(err)
	}
	id := hs.AllocID()
	if err := hs.ApplyUpdate(&scene.AddNodeOp{Parent: scene.RootID, ID: id, Name: "n", Transform: mathx.Identity()}, "c"); err != nil {
		t.Fatal(err)
	}
	reborn2 := New(Config{Name: "node-c2", Clock: clk})
	_, from2, err := reborn2.RecoverSessionOrBootstrap("fine", hstore.Crashed(), 0, func() []BootstrapSource {
		t.Fatal("healthy recovery consulted replica sources")
		return nil
	})
	if err != nil || from2 != "" {
		t.Fatalf("local recovery: from=%q err=%v", from2, err)
	}
}

// TestRecoverSessionOrBootstrapNoSources: corruption with no replicas
// configured is a hard, explicit failure — never a stale recovery.
func TestRecoverSessionOrBootstrapNoSources(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	svcA := New(Config{Name: "node-a", Clock: clk})
	mem, _, _ := corruptedJournal(t, svcA)
	reborn := New(Config{Name: "node-a2", Clock: clk})
	if _, _, err := reborn.RecoverSessionOrBootstrap("victim", mem, 0, nil); !errors.Is(err, wal.ErrLogCorrupt) {
		t.Fatalf("err = %v, want ErrLogCorrupt", err)
	}
	empty := func() []BootstrapSource { return nil }
	if _, _, err := reborn.RecoverSessionOrBootstrap("victim", mem, 0, empty); !errors.Is(err, wal.ErrLogCorrupt) {
		t.Fatalf("empty sources: err = %v, want ErrLogCorrupt", err)
	}
}
