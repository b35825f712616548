package imgcodec

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// decodeAllocs returns what one Decode of data allocated.
func decodeAllocs(data, prev []byte) (frame []byte, err error, grew uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, frame, err = Decode(data, prev)
	runtime.ReadMemStats(&after)
	return frame, err, after.TotalAlloc - before.TotalAlloc
}

// decodeBudget is the most a Decode of n bytes may allocate: the frame
// the payload can expand to (DEFLATE's 1032:1 is the widest of the
// codecs) plus the inflater's fixed window and tables.
func decodeBudget(n int) uint64 { return uint64(128<<10 + (maxFlateRatio+8)*n) }

// A thin client decodes what a render service sends. The frame size is
// in a header the sender controls; a header alone must not make the
// client allocate the frame it claims.
func TestDecodeAllocationBoundedByPayload(t *testing.T) {
	for _, codec := range []Codec{RLE, DeltaRLE, Flate} {
		// 8192 x 8192 claims 201 MB; 65535 x 65535 would claim 12.9 GB.
		msg := make([]byte, headerSize)
		msg[0] = byte(codec)
		binary.BigEndian.PutUint16(msg[1:], 8192)
		binary.BigEndian.PutUint16(msg[3:], 8192)
		_, err, grew := decodeAllocs(msg, nil)
		if err == nil {
			t.Errorf("%s: a bare header claiming 8192x8192 was accepted", codec)
		}
		if most := decodeBudget(len(msg)); grew > most {
			t.Errorf("%s: decoding %d bytes allocated %d, want at most %d", codec, len(msg), grew, most)
		}
	}
}

// FuzzDecode holds the thin client's decoder to the two things its caller
// relies on: arbitrary bytes are refused or decoded, never a panic, and a
// decode allocates in proportion to the bytes it was given, whatever
// frame size their header claims. A frame that decodes has the size its
// header says.
func FuzzDecode(f *testing.F) {
	frame := flatFrame(6, 5, 9, 8, 7)
	frame[10], frame[40] = 200, 100
	prev := flatFrame(6, 5, 9, 8, 7)
	for _, codec := range []Codec{Raw, RLE, DeltaRLE, Flate} {
		enc, err := Encode(codec, 6, 5, frame, prev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte{byte(RLE), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{byte(Flate), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 2, 0x03, 0x00})
	// Delta frames against prev's 30 pixels that are refused once the
	// reference is copied: a zero-length run, runs that overflow the
	// frame after a changed one, and runs that fall short of it.
	for _, runs := range [][]byte{
		{0, 1, 2, 3, 30, 0, 0, 0},
		{20, 1, 2, 3, 20, 0, 0, 0},
		{10, 1, 2, 3, 10, 0, 0, 0},
	} {
		f.Add(append([]byte{byte(DeltaRLE), 0, 6, 0, 5, 0, 0, 0, byte(len(runs))}, runs...))
	}
	kept := append([]byte(nil), prev...)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err, grew := decodeAllocs(data, prev)
		if most := decodeBudget(len(data)); grew > most {
			t.Errorf("decoding %d bytes allocated %d, want at most %d", len(data), grew, most)
		}
		// A delta is decoded into a frame of its own: the reference, which
		// the caller goes on decoding against, is never written.
		if !bytes.Equal(prev, kept) {
			t.Fatalf("decoding (err %v) wrote the reference frame", err)
		}
		if err != nil {
			return
		}
		w := int(binary.BigEndian.Uint16(data[1:]))
		h := int(binary.BigEndian.Uint16(data[3:]))
		if len(got) != w*h*3 {
			t.Errorf("decoded %d bytes for a %dx%d frame", len(got), w, h)
		}
		// What Raw decodes is the payload itself.
		if Codec(data[0]) == Raw && !bytes.Equal(got, data[headerSize:]) {
			t.Error("raw frame differs from its payload")
		}
	})
}
