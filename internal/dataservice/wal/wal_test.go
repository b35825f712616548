package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/marshal"
	"repro/internal/mathx"
	"repro/internal/scene"
)

// testScene builds a small scene with n payload-free child nodes so ops
// have targets.
func testScene(n int) *scene.Scene {
	s := scene.New()
	for i := 0; i < n; i++ {
		id := s.AllocID()
		op := &scene.AddNodeOp{Parent: scene.RootID, ID: id, Name: "n", Transform: mathx.Identity()}
		if err := s.ApplyOp(op); err != nil {
			panic(err)
		}
	}
	return s
}

// appendOps applies count transform ops to live and journals each one,
// returning the version after the last append.
func appendOps(t testing.TB, l *Log, live *scene.Scene, count int) uint64 {
	t.Helper()
	at := time.Unix(100, 0)
	for i := 0; i < count; i++ {
		id := scene.NodeID(2 + i%2)
		op := &scene.SetTransformOp{ID: id, Transform: mathx.Translate(mathx.V3(float64(i), 0, 0))}
		if err := live.ApplyOp(op); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(op, live.Version, at, live.Clone); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	return live.Version
}

// TestRoundTrip: create, append, recover — the recovered scene is at
// exactly the last committed version and replays to the same tree.
func TestRoundTrip(t *testing.T) {
	store := NewMemStore()
	live := testScene(2)
	l, err := Create(store, live, live.Version, time.Unix(50, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := appendOps(t, l, live, 5)
	l.Close()

	rec, err := Recover(store)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn != nil {
		t.Errorf("clean segment reported torn: %v", rec.Torn)
	}
	if rec.Version != want {
		t.Fatalf("recovered version %d, want %d", rec.Version, want)
	}
	if len(rec.Ops) != 5 {
		t.Fatalf("recovered %d ops, want 5", len(rec.Ops))
	}
	got, err := rec.Scene()
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != live.Version {
		t.Errorf("replayed scene version %d, want %d", got.Version, live.Version)
	}
	if got.Node(2).Transform != live.Node(2).Transform {
		t.Errorf("replayed transform differs from live scene")
	}
}

// TestCrashRecoversToExactVersion: every acknowledged Append survives a
// crash that discards unsynced bytes — the fsync-on-commit contract.
func TestCrashRecoversToExactVersion(t *testing.T) {
	store := NewMemStore()
	live := testScene(2)
	l, err := Create(store, live, live.Version, time.Unix(50, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := appendOps(t, l, live, 7)

	// Simulate the power cut: only synced bytes survive.
	rec, err := Recover(store.Crashed())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != want {
		t.Fatalf("recovered version %d after crash, want %d", rec.Version, want)
	}
	got, err := rec.Scene()
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want {
		t.Errorf("replayed scene at %d, want %d", got.Version, want)
	}
}

// TestTornTailDiscarded: a crash mid-record (simulated by truncating the
// durable image inside the final record) loses only that unacknowledged
// record; every complete record before it is recovered.
func TestTornTailDiscarded(t *testing.T) {
	store := NewMemStore()
	live := testScene(2)
	l, err := Create(store, live, live.Version, time.Unix(50, 0))
	if err != nil {
		t.Fatal(err)
	}
	appendOps(t, l, live, 2)
	before := len(store.Bytes())
	appendOps(t, l, live, 1)

	img := store.Bytes()
	lastRec := len(img) - before
	// Cut inside the final record only: mid-body, mid-header, and one
	// byte short of complete.
	for _, cut := range []int{1, lastRec - 20, lastRec - 1} {
		torn := NewMemStore()
		seg, _ := torn.Append()
		seg.Write(img[:len(img)-cut])
		seg.Close()

		rec, err := Recover(torn)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if rec.Torn == nil {
			t.Fatalf("cut %d: torn tail not reported", cut)
		}
		if !errors.Is(rec.Torn, ErrTruncated) {
			t.Errorf("cut %d: torn = %v, want ErrTruncated", cut, rec.Torn)
		}
		if rec.Version != live.Version-1 {
			t.Errorf("cut %d: recovered version %d, want %d", cut, rec.Version, live.Version-1)
		}
	}
}

// TestChecksumTornTail: a bit flip in the final record body is detected
// by CRC and the record discarded as torn.
func TestChecksumTornTail(t *testing.T) {
	store := NewMemStore()
	live := testScene(2)
	l, err := Create(store, live, live.Version, time.Unix(50, 0))
	if err != nil {
		t.Fatal(err)
	}
	appendOps(t, l, live, 2)

	img := store.Bytes()
	img[len(img)-1] ^= 0xFF
	bad := NewMemStore()
	seg, _ := bad.Append()
	seg.Write(img)
	seg.Close()

	rec, err := Recover(bad)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rec.Torn, ErrChecksum) {
		t.Errorf("torn = %v, want ErrChecksum", rec.Torn)
	}
	if rec.Version != live.Version-1 {
		t.Errorf("recovered version %d, want %d", rec.Version, live.Version-1)
	}
}

// TestMidLogCorruptionRefused: a bit flip in a record that intact
// records follow is not a crash artifact — no crash tears anything but
// the final record — so recovery must refuse with ErrLogCorrupt rather
// than silently serve the stale prefix before the damage.
func TestMidLogCorruptionRefused(t *testing.T) {
	store := NewMemStore()
	live := testScene(2)
	l, err := Create(store, live, live.Version, time.Unix(50, 0))
	if err != nil {
		t.Fatal(err)
	}
	appendOps(t, l, live, 1)
	mid := len(store.Bytes()) // op 1 ends here; op 2 and 3 follow
	appendOps(t, l, live, 2)
	l.Close()

	img := store.Bytes()
	img[mid+recHeaderSize] ^= 0xFF // inside op 2's body
	bad := NewMemStore()
	seg, _ := bad.Append()
	seg.Write(img)
	seg.Close()

	rec, err := Recover(bad)
	if !errors.Is(err, ErrLogCorrupt) {
		t.Fatalf("mid-log corruption recovered as rec=%+v err=%v, want ErrLogCorrupt", rec, err)
	}
	if !errors.Is(err, ErrChecksum) {
		t.Errorf("corruption error does not carry the CRC cause: %v", err)
	}
}

// TestAdjacentTailCorruptionStillTorn: damage in the second-to-last
// record followed only by further damage (never an intact record) has
// no proof of mid-log corruption — the scan settles it as tail loss.
func TestAdjacentTailCorruptionStillTorn(t *testing.T) {
	store := NewMemStore()
	live := testScene(2)
	l, err := Create(store, live, live.Version, time.Unix(50, 0))
	if err != nil {
		t.Fatal(err)
	}
	appendOps(t, l, live, 1)
	mid := len(store.Bytes())
	appendOps(t, l, live, 2)
	l.Close()

	img := store.Bytes()
	img[mid+recHeaderSize] ^= 0xFF // op 2's body
	img[len(img)-1] ^= 0xFF        // op 3's body too
	bad := NewMemStore()
	seg, _ := bad.Append()
	seg.Write(img)
	seg.Close()

	rec, err := Recover(bad)
	if err != nil {
		t.Fatalf("damage with no intact survivor must settle as torn: %v", err)
	}
	if !errors.Is(rec.Torn, ErrChecksum) {
		t.Errorf("torn = %v, want ErrChecksum", rec.Torn)
	}
	if rec.Version != live.Version-2 {
		t.Errorf("recovered version %d, want %d", rec.Version, live.Version-2)
	}
}

// TestCorruptCheckpointRefused: checkpoints are synced and atomically
// promoted before their segment goes live, so checkpoint damage is
// corruption, never a torn tail.
func TestCorruptCheckpointRefused(t *testing.T) {
	store := NewMemStore()
	live := testScene(2)
	l, err := Create(store, live, live.Version, time.Unix(50, 0))
	if err != nil {
		t.Fatal(err)
	}
	appendOps(t, l, live, 1)
	l.Close()

	img := store.Bytes()
	img[headerSize+recHeaderSize+4] ^= 0x01 // inside the checkpoint body
	bad := NewMemStore()
	seg, _ := bad.Append()
	seg.Write(img)
	seg.Close()

	if _, err := Recover(bad); !errors.Is(err, ErrLogCorrupt) {
		t.Fatalf("corrupt checkpoint: %v, want ErrLogCorrupt", err)
	}
}

// TestRecoveredBaseAt: the checkpoint's timestamp survives recovery
// (the field the old scan read and discarded).
func TestRecoveredBaseAt(t *testing.T) {
	store := NewMemStore()
	live := testScene(1)
	at := time.Unix(1234, 5678)
	l, err := Create(store, live, live.Version, at)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	rec, err := Recover(store)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.BaseAt.Equal(at) {
		t.Errorf("BaseAt = %v, want %v", rec.BaseAt, at)
	}
}

// TestOversizedRecordRejected: a record announcing a body beyond the
// size limit is unrecoverable (it cannot be skipped safely), not torn.
func TestOversizedRecordRejected(t *testing.T) {
	store := NewMemStore()
	live := testScene(1)
	l, err := Create(store, live, live.Version, time.Unix(50, 0))
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	img := store.Bytes()
	// Forge an op record header announcing a >1GiB body.
	var rec [recHeaderSize]byte
	rec[0] = tagOp
	binary.BigEndian.PutUint64(rec[1:], live.Version+1)
	binary.BigEndian.PutUint32(rec[17:], maxRecord+1)
	img = append(img, rec[:]...)

	if _, err := Scan(bytes.NewReader(img)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("scan = %v, want ErrTooLarge", err)
	}
}

// TestBadMagicAndFormat: segments from another universe are refused.
func TestBadMagicAndFormat(t *testing.T) {
	if _, err := Scan(bytes.NewReader([]byte("RAVAxx"))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[:4], Magic)
	binary.BigEndian.PutUint16(hdr[4:], Format+9)
	if _, err := Scan(bytes.NewReader(hdr[:])); !errors.Is(err, ErrBadFormat) {
		t.Errorf("bad format: %v", err)
	}
	if _, err := Scan(bytes.NewReader(hdr[:3])); !errors.Is(err, ErrTruncated) {
		t.Errorf("short header: %v", err)
	}
}

// TestVersionGapFatal: a mid-segment version gap means records were
// lost somewhere other than the tail — unrecoverable.
func TestVersionGapFatal(t *testing.T) {
	live := testScene(2)
	var buf bytes.Buffer
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[:4], Magic)
	binary.BigEndian.PutUint16(hdr[4:], Format)
	buf.Write(hdr[:])

	var sc bytes.Buffer
	if err := marshal.WriteScene(&sc, live); err != nil {
		t.Fatal(err)
	}
	writeRecord(&buf, tagCheckpoint, live.Version, time.Unix(1, 0), sc.Bytes())

	op := &scene.SetTransformOp{ID: 2, Transform: mathx.Identity()}
	var ob bytes.Buffer
	if err := marshal.WriteOp(&ob, op); err != nil {
		t.Fatal(err)
	}
	writeRecord(&buf, tagOp, live.Version+2, time.Unix(2, 0), ob.Bytes()) // gap!

	if _, err := Scan(&buf); err == nil {
		t.Fatal("version gap accepted")
	}
}

// TestAppendVersionDiscipline: Append refuses a version that does not
// follow the last committed one, and the error is sticky.
func TestAppendVersionDiscipline(t *testing.T) {
	store := NewMemStore()
	live := testScene(2)
	l, err := Create(store, live, live.Version, time.Unix(50, 0))
	if err != nil {
		t.Fatal(err)
	}
	op := &scene.SetTransformOp{ID: 2, Transform: mathx.Identity()}
	if err := l.Append(op, live.Version+2, time.Unix(51, 0), nil); err == nil {
		t.Fatal("version gap accepted by Append")
	}
	if err := l.Append(op, live.Version+1, time.Unix(51, 0), nil); err == nil {
		t.Fatal("sticky error cleared itself")
	}
}

// TestCompaction: crossing CompactEvery rewrites the segment as a single
// checkpoint at the current version; recovery needs no op replay and the
// segment shrinks.
func TestCompaction(t *testing.T) {
	store := NewMemStore()
	live := testScene(2)
	l, err := Create(store, live, live.Version, time.Unix(50, 0))
	if err != nil {
		t.Fatal(err)
	}
	l.CompactEvery = 4
	appendOps(t, l, live, 4) // exactly the threshold: compacts

	rec, err := Recover(store)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Ops) != 0 {
		t.Errorf("compacted segment still has %d ops", len(rec.Ops))
	}
	if rec.BaseVersion != live.Version || rec.Version != live.Version {
		t.Errorf("compacted checkpoint at %d/%d, want %d", rec.BaseVersion, rec.Version, live.Version)
	}

	// Appends keep working after compaction.
	appendOps(t, l, live, 2)
	rec, err = Recover(store)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != live.Version || len(rec.Ops) != 2 {
		t.Errorf("post-compaction recovery: version %d ops %d, want %d/2", rec.Version, len(rec.Ops), live.Version)
	}
}

// TestSyncFailurePoisons: a failed fsync must not acknowledge the
// commit; the log goes sticky-bad so no later append can succeed and
// silently reorder durability.
func TestSyncFailurePoisons(t *testing.T) {
	store := NewMemStore()
	live := testScene(2)
	l, err := Create(store, live, live.Version, time.Unix(50, 0))
	if err != nil {
		t.Fatal(err)
	}
	store.FailSyncs(errors.New("disk gone"))
	op := &scene.SetTransformOp{ID: 2, Transform: mathx.Identity()}
	live.ApplyOp(op)
	if err := l.Append(op, live.Version, time.Unix(51, 0), nil); err == nil {
		t.Fatal("append acknowledged without durable sync")
	}
	store.FailSyncs(nil)
	if l.Err() == nil {
		t.Fatal("log not poisoned after sync failure")
	}
}

// TestCompactionSyncFailurePoisons: a failed fsync during checkpoint
// compaction (the rewrite triggered by crossing CompactEvery) must
// poison the log exactly like a failed append fsync — and must leave
// the old segment intact, so the op that triggered compaction is still
// recoverable even though its Append reported failure.
func TestCompactionSyncFailurePoisons(t *testing.T) {
	live := testScene(2)
	// Two syncs succeed — Create's checkpoint and the op record — so the
	// first failure lands on the compaction rewrite's checkpoint sync.
	store := &syncFailAfter{MemStore: NewMemStore(), okSyncs: 2}
	l, err := Create(store, live, live.Version, time.Unix(50, 0))
	if err != nil {
		t.Fatal(err)
	}
	l.CompactEvery = 1
	op := &scene.SetTransformOp{ID: 2, Transform: mathx.Identity()}
	live.ApplyOp(op)
	if err := l.Append(op, live.Version, time.Unix(51, 0), live.Clone); err == nil {
		t.Fatal("append acknowledged across a failed compaction sync")
	}
	if l.Err() == nil {
		t.Fatal("log not poisoned after compaction sync failure")
	}
	if err := l.Append(op, live.Version+1, time.Unix(52, 0), nil); err == nil {
		t.Fatal("poisoned log accepted a later append")
	}
	// The op itself was synced to the old segment before the rewrite
	// died: recovery still reaches it.
	rec, err := Recover(store.MemStore.Crashed())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != live.Version {
		t.Errorf("recovered %d after failed compaction, want %d", rec.Version, live.Version)
	}
}

// syncFailAfter lets okSyncs syncs through, then fails the rest — the
// op-record fsync succeeds and the compaction checkpoint's fsync dies.
type syncFailAfter struct {
	*MemStore
	okSyncs int
}

func (s *syncFailAfter) Append() (WriteSyncCloser, error) {
	seg, err := s.MemStore.Append()
	if err != nil {
		return nil, err
	}
	return &countedSeg{WriteSyncCloser: seg, owner: s}, nil
}

func (s *syncFailAfter) Replace() (WriteSyncCloser, error) {
	seg, err := s.MemStore.Replace()
	if err != nil {
		return nil, err
	}
	return &countedSeg{WriteSyncCloser: seg, owner: s}, nil
}

type countedSeg struct {
	WriteSyncCloser
	owner *syncFailAfter
}

func (c *countedSeg) Sync() error {
	if c.owner.okSyncs <= 0 {
		return errors.New("disk gone")
	}
	c.owner.okSyncs--
	return c.WriteSyncCloser.Sync()
}

// TestCompactionPromoteFailurePoisons: the same discipline for the
// compaction's atomic rename — a refused Promote poisons the log, and
// the un-promoted replacement leaves the old segment authoritative.
func TestCompactionPromoteFailurePoisons(t *testing.T) {
	store := NewMemStore()
	live := testScene(2)
	l, err := Create(store, live, live.Version, time.Unix(50, 0))
	if err != nil {
		t.Fatal(err)
	}
	l.CompactEvery = 1
	store.FailPromotes(errors.New("rename refused"))
	op := &scene.SetTransformOp{ID: 2, Transform: mathx.Identity()}
	live.ApplyOp(op)
	if err := l.Append(op, live.Version, time.Unix(51, 0), live.Clone); err == nil {
		t.Fatal("append acknowledged across a failed compaction promote")
	}
	if l.Err() == nil {
		t.Fatal("log not poisoned after promote failure")
	}
	store.FailPromotes(nil)
	if err := l.Append(op, live.Version+1, time.Unix(52, 0), nil); err == nil {
		t.Fatal("poisoned log accepted a later append")
	}
	rec, err := Recover(store.Crashed())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != live.Version {
		t.Errorf("recovered %d after failed promote, want %d", rec.Version, live.Version)
	}
}

// TestOSStore: the on-disk store round-trips through a real file and
// compaction's atomic-rename promotion.
func TestOSStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "session.wal")
	store := NewOSStore(path)
	if Exists(store) {
		t.Fatal("fresh path reports an existing segment")
	}
	live := testScene(2)
	l, err := Create(store, live, live.Version, time.Unix(50, 0))
	if err != nil {
		t.Fatal(err)
	}
	l.CompactEvery = 3
	want := appendOps(t, l, live, 5) // compacts at 3, then 2 tail ops
	l.Close()

	if !Exists(store) {
		t.Fatal("segment not found after journaling")
	}
	rec, err := Recover(store)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Version != want || len(rec.Ops) != 2 {
		t.Errorf("recovered version %d with %d ops, want %d with 2", rec.Version, len(rec.Ops), want)
	}
	got, err := rec.Scene()
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want {
		t.Errorf("replayed scene at %d, want %d", got.Version, want)
	}
}
