package imgcodec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// rleEncode and rleDecode are the run-length payload alone, as Encode
// appends it after the header and Decode expands it.
func rleEncode(src []byte) []byte { return rleAppend(nil, src) }

func rleDecode(src []byte, want int) ([]byte, error) { return rleApply(src, want, nil) }

// The run-length loops as they were before they ran over words, one
// byte at a time: the oracles the word-wise loops must equal byte for
// byte.

func rleEncodeOracle(src []byte) []byte {
	out := make([]byte, 0, len(src)/8+16)
	n := len(src) / 3
	i := 0
	for i < n {
		r, g, b := src[3*i], src[3*i+1], src[3*i+2]
		run := 1
		for i+run < n && run < 255 &&
			src[3*(i+run)] == r && src[3*(i+run)+1] == g && src[3*(i+run)+2] == b {
			run++
		}
		out = append(out, byte(run), r, g, b)
		i += run
	}
	return out
}

func rleDecodeOracle(src []byte, want int) ([]byte, error) {
	if len(src)%4 != 0 {
		return nil, fmt.Errorf("length %d not a multiple of 4", len(src))
	}
	out := make([]byte, 0, want)
	for i := 0; i < len(src); i += 4 {
		run := int(src[i])
		if run == 0 || len(out)+run*3 > want {
			return nil, fmt.Errorf("bad run at %d", i)
		}
		for k := 0; k < run; k++ {
			out = append(out, src[i+1], src[i+2], src[i+3])
		}
	}
	if len(out) != want {
		return nil, fmt.Errorf("produced %d bytes, want %d", len(out), want)
	}
	return out, nil
}

// deltaEncodeOracle is the DeltaRLE arm of Encode as it was: the same
// three allocations, the XOR and the run scan a byte at a time.
func deltaEncodeOracle(frame, prev []byte) []byte {
	diff := make([]byte, len(frame))
	for i := range frame {
		diff[i] = frame[i] ^ prev[i]
	}
	payload := rleEncodeOracle(diff)
	out := make([]byte, headerSize+len(payload))
	copy(out[headerSize:], payload)
	return out
}

// runsFrame is a frame of the given run lengths in pixels, each run a
// colour different from its neighbours'; every third run is grey
// (r = g = b) and every fifth black.
func runsFrame(runs ...int) []byte {
	var f []byte
	for k, n := range runs {
		c := [3]byte{byte(1 + k%250), byte(7 + k%240), byte(3 + k%230)}
		switch {
		case k%5 == 4:
			c = [3]byte{}
		case k%3 == 2:
			c = [3]byte{byte(1 + k%250), byte(1 + k%250), byte(1 + k%250)}
		}
		for i := 0; i < n; i++ {
			f = append(f, c[:]...)
		}
	}
	return f
}

func sparseFrame(n int, density float64, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	f := make([]byte, n)
	for i := 0; i+3 <= n; i += 3 {
		if rng.Float64() < density {
			f[i], f[i+1], f[i+2] = byte(rng.Intn(256)), byte(rng.Intn(4)), byte(rng.Intn(2))
		}
	}
	return f
}

func TestWordLoopsEqualByteLoops(t *testing.T) {
	frames := map[string][]byte{
		"empty":           {},
		"last pixel":      append(make([]byte, 400*400*3-3), 9, 0, 0),
		"grey":            runsFrame(1, 1, 40, 2, 1, 1, 300, 1),
		"byte before":     {5, 6, 7, 5, 6, 8, 5, 6, 8, 4, 6, 8},
		"480000 flat":     flatFrame(400, 400, 0, 0, 0),
		"480000 coloured": flatFrame(400, 400, 3, 3, 3),
		"sparse 0.1%":     sparseFrame(480000, 0.001, 1),
		"sparse 8%":       sparseFrame(480000, 0.08, 2),
		"sparse 60%":      sparseFrame(480000, 0.6, 3),
		"noise":           noiseFrame(40, 30, 4),
		"two-valued":      noiseFrame(50, 40, 5),
	}
	for i := range frames["two-valued"] {
		frames["two-valued"][i] &= 1
	}
	for _, n := range []int{3, 6, 21, 24, 27} {
		frames[fmt.Sprintf("%d bytes flat", n)] = bytes.Repeat([]byte{4, 4, 4}, n/3)
		frames[fmt.Sprintf("%d bytes distinct", n)] = noiseFrame(n/3, 1, int64(n))
	}
	for _, run := range []int{1, 254, 255, 256, 510, 511, 766} {
		frames[fmt.Sprintf("run of %d", run)] = runsFrame(run)
		frames[fmt.Sprintf("run of %d between others", run)] = runsFrame(2, run, 1, run, 3)
	}
	// A run that ends at every byte offset inside a word, after every
	// lead-in that shifts where the words fall.
	for lead := 0; lead < 8; lead++ {
		for run := 1; run <= 12; run++ {
			frames[fmt.Sprintf("lead %d run %d", lead, run)] = runsFrame(lead, run, 1, run, 2)
		}
	}
	for name, frame := range frames {
		if len(frame)%3 != 0 {
			t.Fatalf("%s: %d bytes is not whole pixels", name, len(frame))
		}
		want := rleEncodeOracle(frame)
		got := rleEncode(frame)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: rleEncode differs from the per-byte loop (%d bytes against %d)", name, len(got), len(want))
			continue
		}
		back, err := rleDecode(got, len(frame))
		ref, referr := rleDecodeOracle(got, len(frame))
		if err != nil || referr != nil || !bytes.Equal(back, frame) || !bytes.Equal(ref, frame) {
			t.Errorf("%s: decode is not the inverse (%v, %v)", name, err, referr)
		}
		// The same through the public pair, as a delta against a frame
		// that shares some of its pixels.
		prev := append([]byte(nil), frame...)
		for i := 0; i+3 <= len(prev); i += 3 * 7 {
			prev[i] ^= 0x55
		}
		w, h := len(frame)/3, 1
		if w > 0xffff {
			w, h = 400, w/400
		}
		enc, err := Encode(DeltaRLE, w, h, frame, prev)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if want := deltaEncodeOracle(frame, prev); !bytes.Equal(enc[headerSize:], want[headerSize:]) {
			t.Errorf("%s: delta payload differs from the per-byte loops", name)
		}
		if _, _, _, dec, err := Decode(enc, prev); err != nil || !bytes.Equal(dec, frame) {
			t.Errorf("%s: delta round trip: %v", name, err)
		}
	}
}

// leastAlloc is the fewest bytes fn allocated in eight calls.
func leastAlloc(fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 8; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

func TestDeltaEncodeAllocatesNoMoreThanBefore(t *testing.T) {
	prev := sparseFrame(400*400*3, 0.1, 6)
	frame := sparseFrame(400*400*3, 0.1, 7)
	before := leastAlloc(func() { deltaEncodeOracle(frame, prev) })
	now := leastAlloc(func() {
		if _, err := Encode(DeltaRLE, 400, 400, frame, prev); err != nil {
			t.Fatal(err)
		}
	})
	if now > before {
		t.Errorf("a 400x400 delta-rle encode allocates %d bytes, %d with the per-byte loops", now, before)
	}
}

// A delta is a difference: decoded without the frame it is a difference
// against it is not a picture, and the encoder never sends one to a
// viewer that has no reference (it sends RLE).
func TestDeltaWithoutReferenceRefused(t *testing.T) {
	prev := noiseFrame(8, 6, 1)
	frame := append([]byte(nil), prev...)
	frame[10] ^= 0xff
	enc, err := Encode(DeltaRLE, 8, 6, frame, prev)
	if err != nil {
		t.Fatal(err)
	}
	if Codec(enc[0]) != DeltaRLE {
		t.Fatalf("encoder sent %s, the test needs a delta", Codec(enc[0]))
	}
	for name, ref := range map[string][]byte{"no reference": nil, "a 4x4 reference": noiseFrame(4, 4, 2)} {
		_, _, _, got, err := Decode(enc, ref)
		if err == nil {
			t.Errorf("%s: delta decoded to %d bytes with no error", name, len(got))
			continue
		}
		for _, size := range []int{len(frame), len(ref)} {
			if !strings.Contains(err.Error(), fmt.Sprint(size)) {
				t.Errorf("%s: error %q does not name %d", name, err, size)
			}
		}
	}
	if _, _, _, got, err := Decode(enc, prev); err != nil || !bytes.Equal(got, frame) {
		t.Errorf("with its reference: %v", err)
	}
}

// deltaPair is a reference frame of n pixels and a frame that differs
// from it in stretches: unchanged stretches of 0 to 300 pixels between
// changed ones of 1 to 600, a changed stretch either one XOR repeated —
// equal neighbouring XORs, runs past the 255-pixel cap — or a new XOR
// per pixel.
func deltaPair(rng *rand.Rand, n int) (frame, prev []byte) {
	prev = make([]byte, 3*n)
	rng.Read(prev)
	frame = append([]byte(nil), prev...)
	for p := rng.Intn(301); p < n; p += rng.Intn(301) {
		end := min(n, p+1+rng.Intn(600))
		x := [3]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), 1}
		same := rng.Intn(2) == 0
		for ; p < end; p++ {
			if !same {
				x = [3]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(255))}
			}
			for k := range x {
				frame[3*p+k] ^= x[k]
			}
		}
	}
	return frame, prev
}

// checkDelta holds one frame/prev pair to the per-byte oracle: the
// encoding is today's header and the run-length quads of frame⊕prev byte
// for byte, and it decodes back to frame without writing prev.
func checkDelta(t *testing.T, name string, frame, prev []byte) {
	t.Helper()
	w, h := len(frame)/3, 1
	diff := make([]byte, len(frame))
	for i := range frame {
		diff[i] = frame[i] ^ prev[i]
	}
	payload := rleEncodeOracle(diff)
	want := make([]byte, headerSize, headerSize+len(payload))
	want[0] = byte(DeltaRLE)
	binary.BigEndian.PutUint16(want[1:], uint16(w))
	binary.BigEndian.PutUint16(want[3:], uint16(h))
	binary.BigEndian.PutUint32(want[5:], uint32(len(payload)))
	want = append(want, payload...)
	got, err := Encode(DeltaRLE, w, h, frame, prev)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding differs from the per-byte oracle's (%v; %d bytes against %d)", name, err, len(got), len(want))
	}
	kept := append([]byte(nil), prev...)
	if _, _, _, back, err := Decode(got, prev); err != nil || !bytes.Equal(back, frame) {
		t.Fatalf("%s: decode is not the frame: %v", name, err)
	}
	if !bytes.Equal(prev, kept) {
		t.Fatalf("%s: decode wrote the reference frame", name)
	}
}

// The one-pass delta encoder, whose unchanged stretches are compared a
// 64-byte block at a time, and the copy-and-apply decoder against the
// per-byte loops, on frames whose byte lengths are mostly no multiple of
// 8 or 64.
func TestOnePassDeltaEqualsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(3000)
		frame, prev := deltaPair(rng, n)
		checkDelta(t, fmt.Sprintf("pair %d (%d pixels)", i, n), frame, prev)
	}
	// One changed byte at each edge of the blocks of an unchanged stretch.
	// The stretch starts after lead changed pixels; its blocks start at
	// its second pixel, byte 3*(lead+1).
	for lead := 0; lead < 3; lead++ {
		for block := 0; block < 3; block++ {
			for _, at := range []int{62, 63, 64, 65, 66} {
				n := lead + 1 + (3+64*block+at)/3 + 1 + rng.Intn(100)
				prev := make([]byte, 3*n)
				rng.Read(prev)
				frame := append([]byte(nil), prev...)
				for p := 0; p < lead; p++ {
					frame[3*p] ^= 0x80
				}
				frame[3*(lead+1)+64*block+at] ^= 1
				checkDelta(t, fmt.Sprintf("lead %d, byte %d of block %d", lead, at, block), frame, prev)
			}
		}
	}
	// Every unchanged stretch from 0 to 300 pixels between two changed
	// pixels, and a frame wholly unchanged for longer than the run cap.
	for gap := 0; gap <= 300; gap++ {
		prev := noiseFrame(gap+2, 1, int64(gap))
		frame := append([]byte(nil), prev...)
		frame[0] ^= 9
		frame[len(frame)-1] ^= 9
		checkDelta(t, fmt.Sprintf("gap %d", gap), frame, prev)
	}
	still := noiseFrame(700, 1, 7)
	checkDelta(t, "700 unchanged pixels", still, append([]byte(nil), still...))
}
