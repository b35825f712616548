package wal

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"time"
)

// scanAllocs runs Scan over img and reports what it returned and how
// many bytes the process allocated meanwhile.
func scanAllocs(img []byte) (rec *Recovered, allocated uint64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec, err = Scan(bytes.NewReader(img))
	runtime.ReadMemStats(&after)
	return rec, after.TotalAlloc - before.TotalAlloc, err
}

// seedSegment is a Create + Append segment: a checkpoint and three ops.
func seedSegment(t testing.TB) []byte {
	store := NewMemStore()
	live := testScene(2)
	l, err := Create(store, live, live.Version, time.Unix(100, 0))
	if err != nil {
		t.Fatal(err)
	}
	appendOps(t, l, live, 3)
	l.Close()
	return store.Bytes()
}

// claimedLength is a record header that says size bytes of body follow.
func claimedLength(version uint64, size uint32) []byte {
	hdr := make([]byte, recHeaderSize)
	hdr[0] = tagOp
	binary.BigEndian.PutUint64(hdr[1:], version)
	binary.BigEndian.PutUint32(hdr[17:], size)
	return hdr
}

// TestClaimedLengthAllocatesLittle: a record header at the tail claiming
// a gigabyte of body that is not there is a torn tail, and costs Scan
// what the segment holds, not what the header claims.
func TestClaimedLengthAllocatesLittle(t *testing.T) {
	img := append(seedSegment(t), claimedLength(6, maxRecord)...)
	rec, allocated, err := scanAllocs(img)
	if err != nil || rec.Torn == nil || rec.Version != 5 {
		t.Fatalf("scan = %+v, %v; want version 5 behind a torn tail", rec, err)
	}
	if allocated >= 1<<20 {
		t.Errorf("scan allocated %d bytes for a %d-byte segment", allocated, len(img))
	}
}

// FuzzScan feeds Scan damaged segments — the journal's and, being the
// same format, the audit trail's. Whatever the bytes, Scan must not
// panic, must not allocate beyond a multiple of what it was given, and
// must either refuse or return a history that replays to the version it
// reports.
func FuzzScan(f *testing.F) {
	seed := seedSegment(f)
	f.Add(seed)
	for _, cut := range []int{0, 3, headerSize, headerSize + 10, len(seed) / 2, len(seed) - 1} {
		f.Add(seed[:cut])
	}
	for _, at := range []int{2, 5, headerSize + 4, headerSize + 20, len(seed) / 2, len(seed) - 30, len(seed) - 1} {
		flipped := bytes.Clone(seed)
		flipped[at] ^= 0x10
		f.Add(flipped)
	}
	f.Add(append(bytes.Clone(seed), claimedLength(6, maxRecord)...))
	f.Add(append(bytes.Clone(seed), claimedLength(6, maxRecord+1)...))

	f.Fuzz(func(t *testing.T, img []byte) {
		rec, allocated, err := scanAllocs(img)
		if limit := uint64(1<<20 + 64*len(img)); allocated > limit {
			t.Fatalf("scan allocated %d bytes for %d bytes of input", allocated, len(img))
		}
		if err != nil {
			return
		}
		sc, err := rec.Scene()
		if err != nil {
			t.Fatalf("scan accepted a history that does not replay: %v", err)
		}
		if sc.Version != rec.Version {
			t.Fatalf("history replays to version %d, scan reported %d", sc.Version, rec.Version)
		}
	})
}
