package imgcodec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// flatFrame returns a w*h frame of a single color.
func flatFrame(w, h int, r, g, b byte) []byte {
	f := make([]byte, w*h*3)
	for i := 0; i < len(f); i += 3 {
		f[i], f[i+1], f[i+2] = r, g, b
	}
	return f
}

func noiseFrame(w, h int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	f := make([]byte, w*h*3)
	rng.Read(f)
	return f
}

func TestRawRoundTrip(t *testing.T) {
	frame := noiseFrame(16, 12, 1)
	enc, err := Encode(Raw, 16, 12, frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	codec, w, h, got, err := Decode(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if codec != Raw || w != 16 || h != 12 {
		t.Errorf("header: %v %dx%d", codec, w, h)
	}
	if !bytes.Equal(got, frame) {
		t.Error("raw round trip mismatch")
	}
}

func TestRLERoundTripAndCompression(t *testing.T) {
	frame := flatFrame(64, 64, 10, 20, 30)
	enc, err := Encode(RLE, 64, 64, frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(frame)/10 {
		t.Errorf("flat frame barely compressed: %d of %d bytes", len(enc), len(frame))
	}
	_, _, _, got, err := Decode(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frame) {
		t.Error("RLE round trip mismatch")
	}
}

func TestRLENoiseRoundTrip(t *testing.T) {
	frame := noiseFrame(20, 20, 2)
	enc, err := Encode(RLE, 20, 20, frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, got, err := Decode(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frame) {
		t.Error("noise RLE round trip mismatch")
	}
}

func TestDeltaRLERoundTrip(t *testing.T) {
	prev := noiseFrame(32, 32, 3)
	// Next frame differs in a few pixels only.
	frame := append([]byte(nil), prev...)
	for i := 0; i < 30; i++ {
		frame[i*17%len(frame)] ^= 0x5a
	}
	enc, err := Encode(DeltaRLE, 32, 32, frame, prev)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(frame)/4 {
		t.Errorf("delta of near-identical frames barely compressed: %d bytes", len(enc))
	}
	_, _, _, got, err := Decode(enc, prev)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frame) {
		t.Error("delta round trip mismatch")
	}
}

func TestDeltaRLEWithoutPrev(t *testing.T) {
	frame := flatFrame(8, 8, 5, 5, 5)
	enc, err := Encode(DeltaRLE, 8, 8, frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, got, err := Decode(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, frame) {
		t.Error("prev-less delta round trip mismatch")
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := Encode(Raw, 4, 4, make([]byte, 10), nil); err == nil {
		t.Error("wrong frame size accepted")
	}
	if _, err := Encode(Codec(99), 2, 2, make([]byte, 12), nil); err == nil {
		t.Error("unknown codec accepted")
	}
	if _, err := Encode(Raw, 70000, 1, make([]byte, 70000*3), nil); err == nil {
		t.Error("oversized dimension accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	frame := flatFrame(4, 4, 1, 2, 3)
	enc, _ := Encode(RLE, 4, 4, frame, nil)
	cases := map[string][]byte{
		"short header": enc[:4],
		"truncated":    enc[:len(enc)-2],
		"padded":       append(append([]byte(nil), enc...), 0),
		"bad codec":    append([]byte{99}, enc[1:]...),
	}
	for name, data := range cases {
		if _, _, _, _, err := Decode(data, nil); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Corrupt RLE payload: zero run length.
	bad, _ := Encode(RLE, 4, 4, frame, nil)
	bad[headerSize] = 0
	if _, _, _, _, err := Decode(bad, nil); err == nil {
		t.Error("zero run accepted")
	}
}

// encodeAdaptive encodes frame with a's adaptive codec and reports which
// codec the choice fell on.
func encodeAdaptive(a *Adaptive, w, h int, frame []byte, bps float64) ([]byte, Codec, error) {
	enc, err := a.Encode("adaptive", w, h, frame, bps)
	if err != nil {
		return nil, 0, err
	}
	return enc, Codec(enc[0]), nil
}

func TestAdaptiveChoosesByThroughput(t *testing.T) {
	a := NewAdaptive()
	frame := flatFrame(32, 32, 9, 9, 9)

	_, codec, err := encodeAdaptive(a, 32, 32, frame, 100e6)
	if err != nil {
		t.Fatal(err)
	}
	if codec != Raw {
		t.Errorf("fast link chose %v, want raw", codec)
	}

	_, codec, err = encodeAdaptive(a, 32, 32, frame, 11e6)
	if err != nil {
		t.Fatal(err)
	}
	if codec != DeltaRLE && codec != RLE {
		t.Errorf("slow link chose %v, want compressed", codec)
	}
}

func TestAdaptiveDeltaAfterFirstFrame(t *testing.T) {
	a := NewAdaptive()
	frame := flatFrame(16, 16, 1, 1, 1)
	if _, codec, _ := encodeAdaptive(a, 16, 16, frame, 1e6); codec != RLE {
		t.Errorf("first slow frame: %v, want rle", codec)
	}
	if _, codec, _ := encodeAdaptive(a, 16, 16, frame, 1e6); codec != DeltaRLE {
		t.Errorf("second slow frame: %v, want delta-rle", codec)
	}
	// A new connection is a new encoder: nothing to delta against.
	if _, codec, _ := encodeAdaptive(NewAdaptive(), 16, 16, frame, 1e6); codec != RLE {
		t.Errorf("fresh encoder: %v, want rle", codec)
	}
}

func TestAdaptiveFallsBackToRawOnNoise(t *testing.T) {
	a := NewAdaptive()
	frame := noiseFrame(32, 32, 4)
	enc, codec, err := encodeAdaptive(a, 32, 32, frame, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if codec != Raw {
		t.Errorf("incompressible frame used %v", codec)
	}
	if len(enc) != headerSize+len(frame) {
		t.Errorf("raw fallback size %d", len(enc))
	}
}

func TestAdaptiveStreamRoundTrip(t *testing.T) {
	a := NewAdaptive()
	var prevDecoded []byte
	base := flatFrame(24, 24, 100, 100, 100)
	for i := 0; i < 10; i++ {
		frame := append([]byte(nil), base...)
		frame[i*3] = byte(i) // small temporal change
		enc, _, err := encodeAdaptive(a, 24, 24, frame, 5e6)
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, got, err := Decode(enc, prevDecoded)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, frame) {
			t.Fatalf("frame %d corrupted in adaptive stream", i)
		}
		prevDecoded = got
	}
}

func TestPropRLERoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		// Frame must be a multiple of 3; pad.
		for len(data)%3 != 0 {
			data = append(data, 0)
		}
		w := len(data) / 3
		if w == 0 {
			return true
		}
		enc, err := Encode(RLE, w, 1, data, nil)
		if err != nil {
			return false
		}
		_, _, _, got, err := Decode(enc, nil)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCodecString(t *testing.T) {
	if Raw.String() != "raw" || RLE.String() != "rle" || DeltaRLE.String() != "delta-rle" {
		t.Error("codec names wrong")
	}
	if Codec(42).String() == "" {
		t.Error("unknown codec name empty")
	}
}

func TestFlateRoundTrip(t *testing.T) {
	frame := flatFrame(32, 32, 7, 8, 9)
	enc, err := Encode(Flate, 32, 32, frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(frame)/4 {
		t.Errorf("flat frame barely flate-compressed: %d bytes", len(enc))
	}
	codec, w, h, got, err := Decode(enc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if codec != Flate || w != 32 || h != 32 {
		t.Errorf("header: %v %dx%d", codec, w, h)
	}
	if !bytes.Equal(got, frame) {
		t.Error("flate round trip mismatch")
	}
	// Noise round-trips too (though it expands).
	noisy := noiseFrame(16, 16, 11)
	enc, err = Encode(Flate, 16, 16, noisy, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, got, err = Decode(enc, nil)
	if err != nil || !bytes.Equal(got, noisy) {
		t.Errorf("noisy flate round trip: %v", err)
	}
}

func TestFlateDecodeErrors(t *testing.T) {
	frame := flatFrame(8, 8, 1, 2, 3)
	enc, err := Encode(Flate, 8, 8, frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the deflate stream.
	bad := append([]byte(nil), enc...)
	for i := headerSize; i < len(bad); i++ {
		bad[i] ^= 0xff
	}
	if _, _, _, _, err := Decode(bad, nil); err == nil {
		t.Error("corrupted flate stream accepted")
	}
}

func TestAdaptivePrefersFlateForGradients(t *testing.T) {
	// A smooth gradient defeats RLE (few runs) but compresses with flate.
	w, h := 48, 48
	frame := make([]byte, w*h*3)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := (y*w + x) * 3
			frame[i] = byte(x * 5)
			frame[i+1] = byte(y * 5)
			frame[i+2] = byte((x + y) * 2)
		}
	}
	a := NewAdaptive()
	enc, codec, err := encodeAdaptive(a, w, h, frame, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if codec != Flate {
		t.Errorf("gradient frame used %v, want flate", codec)
	}
	if len(enc) >= len(frame) {
		t.Errorf("gradient did not compress: %d bytes", len(enc))
	}
	_, _, _, got, err := Decode(enc, nil)
	if err != nil || !bytes.Equal(got, frame) {
		t.Errorf("adaptive flate round trip: %v", err)
	}
}

func TestCodecStringFlate(t *testing.T) {
	if Flate.String() != "flate" {
		t.Error("flate name wrong")
	}
}
