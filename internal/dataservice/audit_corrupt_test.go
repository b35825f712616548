package dataservice

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/marshal"
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
// Write-index map of a recorded trail (one Write per field):
//
//	0: magic  1: snapshot length  2: snapshot
//	3: op0 header  4: op0 body  5: op1 header  6: op1 body ...

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

	base := scene.New()
	id := base.AllocID()
	if err := base.ApplyOp(&scene.AddNodeOp{Parent: scene.RootID, ID: id, Transform: mathx.Identity()}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer a.Close()
		rec, err := NewRecorder(a, base)
		if err != nil {
			return // the fault plan may kill the link mid-header
		}
		for i := 0; i < 2; i++ {
			op := &scene.SetTransformOp{ID: id, Transform: mathx.Translate(mathx.V3(float64(i), 0, 0))}
			enc, err := marshal.AppendOp(nil, op)
			if err != nil || rec.Append(enc, time.Unix(int64(i), 0)) != nil {
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

// TestAuditCorruptSnapshotLength: a bit-flipped snapshot length (write
// index 1) desynchronizes the whole stream; the reader must error, not
// replay garbage.
func TestAuditCorruptSnapshotLength(t *testing.T) {
	img := recordThroughFaults(t, netsim.NewFaults(7).CorruptWrite(1))
	if _, err := ReadRecording(bytes.NewReader(img)); err == nil {
		t.Fatal("corrupt snapshot length accepted")
	}
}

// TestAuditOversizedSnapshotLength: a length field claiming a >1GiB
// snapshot is rejected before any allocation.
func TestAuditOversizedSnapshotLength(t *testing.T) {
	var img bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], auditMagic)
	img.Write(hdr[:])
	binary.BigEndian.PutUint32(hdr[:], 1<<30+1)
	img.Write(hdr[:])
	_, err := ReadRecording(&img)
	if err == nil {
		t.Fatal("oversized snapshot length accepted")
	}
	if !strings.Contains(err.Error(), "too large") {
		t.Errorf("error %v does not identify the oversized length", err)
	}
}

// TestAuditMidRecordTruncation: truncating inside the final op's body
// (write index 6) and inside its header (write index 5) both error —
// the audit reader is strict, unlike the WAL's torn-tail tolerance,
// because a recording is only opened after a clean close.
func TestAuditMidRecordTruncation(t *testing.T) {
	for name, faults := range map[string]*netsim.Faults{
		"body":   netsim.NewFaults(1).TruncateWrite(6, 3),
		"header": netsim.NewFaults(1).TruncateWrite(5, 4).DropWrites(6),
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
	if _, err := rec.Replay(); err != nil {
		t.Fatal(err)
	}
}
