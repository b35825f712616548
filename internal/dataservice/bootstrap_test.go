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

// corruptedJournal journals four ops through a FaultStore that flips
// bits in a mid-log record, returning the inner store as a crash would
// leave it.
func corruptedJournal(t *testing.T, svc *Service) *wal.MemStore {
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
	return mem
}

// TestRecoverSessionRefusesCorrupt: mid-log corruption must never
// silently recover to the stale prefix — RecoverSession propagates
// wal.ErrLogCorrupt and creates no half-recovered session.
func TestRecoverSessionRefusesCorrupt(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	svcA := New(Config{Name: "node-a", Clock: clk})
	mem := corruptedJournal(t, svcA)

	reborn := New(Config{Name: "node-a2", Clock: clk})
	_, _, err := reborn.RecoverSession("victim", mem, 0)
	if !errors.Is(err, wal.ErrLogCorrupt) {
		t.Fatalf("corrupt journal recovered: err = %v, want ErrLogCorrupt", err)
	}
	if _, ok := reborn.Session("victim"); ok {
		t.Fatal("refused recovery left a half-built session behind")
	}
}
