package dataservice

import (
	"errors"
	"testing"

	"repro/internal/dataservice/wal"
	"repro/internal/mathx"
	"repro/internal/scene"
)

// journaledSession builds an empty session with a journal attached and
// applies count ops, returning the session, the store, and the session
// version after the last committed op.
func journaledSession(t *testing.T, count int) (*Session, *wal.MemStore, uint64) {
	t.Helper()
	svc := New(Config{Name: "data"})
	sess, err := svc.CreateSession("journaled")
	if err != nil {
		t.Fatal(err)
	}
	store := wal.NewMemStore()
	if err := sess.StartJournal(store, 0); err != nil {
		t.Fatal(err)
	}
	var ids []scene.NodeID
	for i := 0; i < 2; i++ {
		id := sess.AllocID()
		op := &scene.AddNodeOp{Parent: scene.RootID, ID: id, Name: "node", Transform: mathx.Identity()}
		if err := sess.ApplyUpdate(op, "test"); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < count-2; i++ {
		op := &scene.SetTransformOp{ID: ids[i%2], Transform: mathx.Translate(mathx.V3(float64(i), 1, 0))}
		if err := sess.ApplyUpdate(op, "test"); err != nil {
			t.Fatal(err)
		}
	}
	return sess, store, sess.Version()
}

// TestJournalCrashRecovery: a crash after N committed ops recovers the
// session at exactly version N — same scene tree, same version — and
// re-attaches the journal so new ops keep committing.
func TestJournalCrashRecovery(t *testing.T) {
	sess, store, want := journaledSession(t, 6)
	wantScene := sess.Snapshot()

	// Power cut: only fsynced bytes survive.
	svc2 := New(Config{Name: "data-reborn"})
	sess2, rec, err := svc2.RecoverSession("journaled", store.Crashed(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn != nil {
		t.Errorf("clean crash reported torn tail: %v", rec.Torn)
	}
	if rec.Version != want || sess2.Version() != want {
		t.Fatalf("recovered to version %d/%d, want %d", rec.Version, sess2.Version(), want)
	}
	got := sess2.Snapshot()
	for _, id := range []scene.NodeID{2, 3} {
		if got.Node(id) == nil || wantScene.Node(id) == nil {
			t.Fatalf("node %d missing after recovery", id)
		}
		if got.Node(id).Transform != wantScene.Node(id).Transform {
			t.Errorf("node %d transform drifted in recovery", id)
		}
	}

	// The recovered session journals onward from the recovered version.
	op := &scene.SetTransformOp{ID: 2, Transform: mathx.Translate(mathx.V3(9, 9, 9))}
	if err := sess2.ApplyUpdate(op, "after"); err != nil {
		t.Fatalf("post-recovery update: %v", err)
	}
	if v := sess2.JournalVersion(); v != want+1 {
		t.Errorf("journal at %d after post-recovery op, want %d", v, want+1)
	}
}

// TestRecoverSessionTornTail: RecoverSession recovers to the last
// complete record when the crash tore the final one mid-write.
func TestRecoverSessionTornTail(t *testing.T) {
	_, store, version := journaledSession(t, 5)

	img := store.Bytes()
	torn := wal.NewMemStore()
	seg, err := torn.Append()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Write(img[:len(img)-7]); err != nil {
		t.Fatal(err)
	}
	seg.Close()

	svc := New(Config{Name: "data"})
	sess, rec, err := svc.RecoverSession("journaled", torn, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn == nil {
		t.Fatal("torn tail not reported")
	}
	if sess.Version() != version-1 {
		t.Errorf("recovered to %d, want last complete record %d", sess.Version(), version-1)
	}
}

// TestJournalReadOnlyNotJournaled: ErrReadOnly refusals must not reach
// the journal — only committed ops are durable.
func TestJournalReadOnlyNotJournaled(t *testing.T) {
	sess, _, version := journaledSession(t, 4)
	sess.SetReadOnly(true)
	op := &scene.SetTransformOp{ID: 2, Transform: mathx.Identity()}
	if err := sess.ApplyUpdate(op, "writer"); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only apply = %v, want ErrReadOnly", err)
	}
	if v := sess.JournalVersion(); v != version {
		t.Errorf("refused op reached the journal: version %d, want %d", v, version)
	}
	// Replication still lands (the standby path) and is journaled.
	if err := sess.ApplyReplicated(op); err != nil {
		t.Fatal(err)
	}
	if v := sess.JournalVersion(); v != version+1 {
		t.Errorf("replicated op not journaled: version %d, want %d", v, version+1)
	}
}
