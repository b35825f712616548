package marshal

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/scene"
)

// TestLengthPrefixIsNotAnAllocationOrder: a few dozen bytes whose length
// prefix claims a quarter of a gigabyte of positions, indices or voxels
// are refused for what they are, having cost next to nothing. ServeConn
// decodes a peer's MsgSceneOp with this decoder.
func TestLengthPrefixIsNotAnAllocationOrder(t *testing.T) {
	setPayload := func(kind scene.Kind, body ...uint32) []byte {
		b := []byte{byte(scene.OpSetPayload)}
		b = binary.BigEndian.AppendUint64(b, 7)
		b = append(b, byte(kind))
		for _, v := range body {
			b = binary.BigEndian.AppendUint32(b, v)
		}
		return b
	}
	voxels := setPayload(scene.KindVoxels, 400, 400, 400)
	voxels = append(voxels, make([]byte, 24+8+8)...) // origin, spacing, iso
	voxels = binary.BigEndian.AppendUint32(voxels, 400*400*400)
	for name, in := range map[string][]byte{
		"11 M positions": setPayload(scene.KindMesh, 11_000_000),
		"60 M indices":   setPayload(scene.KindMesh, 0, 0, 0, 60_000_000),
		"64 M voxels":    voxels,
	} {
		if len(in) > 70 {
			t.Fatalf("%s: input is %d bytes", name, len(in))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadOp(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s in %d bytes accepted", name, len(in))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
			t.Errorf("%s: refusing %d bytes allocated %d", name, len(in), grew)
		}
	}
}

// TestDecodeStrict: every decoder is handed exactly one value, so bytes
// left over are a framing fault, and a frame's flag is 0 (colour) or 2
// (spans) — 1, the retired whole depth plane, is refused like any other.
func TestDecodeStrict(t *testing.T) {
	corpus := goldenCorpus(t)
	decoders := map[string]func([]byte) error{
		"op/":    func(b []byte) error { _, err := DecodeOp(b); return err },
		"scene/": func(b []byte) error { _, err := DecodeScene(b); return err },
		"frame/": func(b []byte) error { _, err := DecodeFrame(b); return err },
	}
	for name, enc := range corpus {
		decode := decoders[name[:strings.Index(name, "/")+1]]
		if err := decode(enc); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := decode(append(enc[:len(enc):len(enc)], 0)); err == nil {
			t.Errorf("%s: a trailing byte accepted", name)
		}
		if err := decode(enc[:len(enc)-1]); err == nil {
			t.Errorf("%s: a missing byte accepted", name)
		}
	}
	for name, flag := range map[string]byte{"frame/64x48-depth": 1, "frame/64x48-spans": 3, "frame/64x48-colour": 0xff} {
		enc := bytes.Clone(corpus[name])
		enc[8] = flag
		if _, err := DecodeFrame(enc); err == nil {
			t.Errorf("%s: frame flag %d accepted", name, flag)
		}
	}
	// The io.Reader entry points are the same decoders.
	enc := corpus["op/transform"]
	if _, err := ReadOp(bytes.NewReader(append(enc[:len(enc):len(enc)], 0))); err == nil {
		t.Error("ReadOp accepted a trailing byte")
	}
}

// TestEncodeOnceAllocatesOnce: the size pass is exact, so an encoding is
// one allocation however many arrays or runs it carries, and a frame
// decodes into the framebuffer and its two planes and nothing else. The
// counts are not asserted under -race, whose runtime allocates too; the
// byte checks below are.
func TestEncodeOnceAllocatesOnce(t *testing.T) {
	move := &scene.SetTransformOp{ID: 6, Transform: mathx.RotateY(0.3)}
	s := richScene(t)
	fb := raster.NewFramebuffer(320, 480)
	fb.Plot(3, 4, 0.25, 10, 20, 30)
	for y := 100; y < 300; y++ { // 200 runs
		for x := 50 + y%7; x < 200; x++ {
			fb.Plot(x, y, float32(x-y)/320, uint8(x), uint8(y), 1)
		}
	}
	frame := AppendFrame(nil, fb, true)
	var sink []byte
	for name, c := range map[string]struct {
		max float64
		fn  func()
	}{
		"encode a move":                {1, func() { sink, _ = AppendOp(nil, move) }},
		"encode a scene":               {1, func() { sink, _ = AppendScene(nil, s) }},
		"encode a 320x480 depth frame": {1, func() { sink = AppendFrame(nil, fb, true) }},
		"re-encode into its buffer":    {0, func() { sink, _ = AppendScene(sink[:0], s) }},
		"decode a 320x480 depth frame": {3, func() { DecodeFrame(frame) }},
	} {
		if got := testing.AllocsPerRun(20, c.fn); got > c.max && !raceEnabled {
			t.Errorf("%s: %.0f allocations, want at most %.0f", name, got, c.max)
		}
	}
	if enc, _ := AppendScene(nil, s); len(enc) != SceneSize(s) {
		t.Errorf("SceneSize %d, encoding %d bytes", SceneSize(s), len(enc))
	}
	back, err := DecodeFrame(frame)
	if err != nil || !bytes.Equal(back.Color, fb.Color) || back.DepthAt(3, 4) != 0.25 || !math.IsInf(float64(back.DepthAt(0, 0)), 1) {
		t.Errorf("frame did not survive: %v", err)
	}
}
