package dataservice

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/dataservice/wal"
	"repro/internal/mathx"
	"repro/internal/netsim"
	"repro/internal/scene"
	"repro/internal/vclock"
)

// Corrupt-journal coverage for the audit trail: an audit stream damaged
// in transit or on disk must never be silently replayed as a shorter or
// different session. The damage is injected with netsim fault plans, so
// every byte of corruption is deterministic.
//
// Write-index map of a recorded trail (a wal segment, one Write per
// record):
//
//	0: segment header  1: checkpoint  2: op0  3: op1 ...

// instantLink is effectively instantaneous so deliveries need no clock
// advancement.
func instantLink() netsim.Link {
	return netsim.Link{BandwidthBps: 1e15, Efficiency: 1, Quality: 1}
}

// recordThroughFaults streams a 2-op audit trail through a SimConn with
// the given fault plan and returns the bytes that survived the link.
func recordThroughFaults(t *testing.T, faults *netsim.Faults) []byte {
	t.Helper()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	a, b := netsim.SimPipe(clk, instantLink(), instantLink())
	a.InjectFaults(faults)

	svc := New(Config{Name: "data", Clock: clk})
	sess, err := svc.CreateSession("s")
	if err != nil {
		t.Fatal(err)
	}
	id := sess.AllocID()
	if err := sess.ApplyUpdate(&scene.AddNodeOp{Parent: scene.RootID, ID: id, Transform: mathx.Identity()}, ""); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		if sess.StartRecording(a) != nil {
			return // the fault plan may kill the link mid-header
		}
		for i := 0; i < 2; i++ {
			op := &scene.SetTransformOp{ID: id, Transform: mathx.Translate(mathx.V3(float64(i), 0, 0))}
			if sess.ApplyUpdate(op, "") != nil {
				return
			}
		}
	}()
	got, err := io.ReadAll(b)
	wg.Wait()
	if err != nil {
		t.Fatalf("drain faulted link: %v", err)
	}
	return got
}

// TestAuditTruncatedHeader: a trail whose magic was cut short is
// rejected outright.
func TestAuditTruncatedHeader(t *testing.T) {
	img := recordThroughFaults(t, netsim.NewFaults(1).TruncateWrite(0, 2))
	if _, err := ReadRecording(bytes.NewReader(img)); err == nil {
		t.Fatal("truncated header accepted")
	}
}

// TestAuditCorruptSnapshotLength: bits flipped in the snapshot record
// (write index 1) fail its CRC or break its framing; the reader must
// error, not replay garbage.
func TestAuditCorruptSnapshotLength(t *testing.T) {
	img := recordThroughFaults(t, netsim.NewFaults(7).CorruptWrite(1))
	if _, err := ReadRecording(bytes.NewReader(img)); !errors.Is(err, wal.ErrLogCorrupt) {
		t.Fatalf("corrupt snapshot record: %v, want wal.ErrLogCorrupt", err)
	}
}

// TestAuditOversizedSnapshotLength: a length field claiming a >1GiB
// snapshot is rejected before any allocation.
func TestAuditOversizedSnapshotLength(t *testing.T) {
	img := binary.BigEndian.AppendUint32(nil, wal.Magic)
	img = binary.BigEndian.AppendUint16(img, wal.Format)
	snap := make([]byte, wal.RecordRoom)
	snap[0] = 'S'
	binary.BigEndian.PutUint32(snap[17:], 1<<30+1)
	_, err := ReadRecording(bytes.NewReader(append(img, snap...)))
	if !errors.Is(err, wal.ErrTooLarge) {
		t.Errorf("oversized snapshot length: %v, want wal.ErrTooLarge", err)
	}
}

// TestAuditMidRecordTruncation: truncating inside the final op's body
// and inside its header (write index 3) both error — the audit reader
// is strict where journal recovery tolerates a torn tail, because a
// recording is only opened after a clean close.
func TestAuditMidRecordTruncation(t *testing.T) {
	for name, faults := range map[string]*netsim.Faults{
		"body":   netsim.NewFaults(1).TruncateWrite(3, wal.RecordRoom+3),
		"header": netsim.NewFaults(1).TruncateWrite(3, 4),
	} {
		img := recordThroughFaults(t, faults)
		if _, err := ReadRecording(bytes.NewReader(img)); err == nil {
			t.Errorf("%s truncation accepted", name)
		}
	}
}

// TestAuditCleanRoundTripThroughSim: control case — the same trail over
// a faultless simulated link replays exactly.
func TestAuditCleanRoundTripThroughSim(t *testing.T) {
	img := recordThroughFaults(t, netsim.NewFaults(1))
	rec, err := ReadRecording(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Ops) != 2 {
		t.Fatalf("recovered %d ops, want 2", len(rec.Ops))
	}
	if _, err := rec.Scene(); err != nil {
		t.Fatal(err)
	}
}
