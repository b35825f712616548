package marshal

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/raster"
)

// sameFrame fails unless got equals want plane for plane, bit for bit
// (a NaN depth equals itself here, and -0 does not equal 0).
func sameFrame(t *testing.T, name string, got, want *raster.Framebuffer) {
	t.Helper()
	if got.W != want.W || got.H != want.H || !bytes.Equal(got.Color, want.Color) || len(got.Depth) != len(want.Depth) {
		t.Errorf("%s: size or colour plane differs", name)
		return
	}
	for i := range want.Depth {
		if math.Float32bits(got.Depth[i]) != math.Float32bits(want.Depth[i]) {
			t.Errorf("%s: depth %d is %x, want %x", name, i, math.Float32bits(got.Depth[i]), math.Float32bits(want.Depth[i]))
			return
		}
	}
}

// spanCases are the buffers the span coding has to get exactly right.
func spanCases() map[string]*raster.Framebuffer {
	nan, negZero, inf := float32(math.NaN()), float32(math.Copysign(0, -1)), float32(math.Inf(1))
	cases := map[string]*raster.Framebuffer{}
	add := func(name string, w, h int, draw func(fb *raster.Framebuffer)) {
		fb := raster.NewFramebuffer(w, h)
		draw(fb)
		cases[name] = fb
	}
	add("empty", 37, 5, func(*raster.Framebuffer) {})
	add("full cover", 37, 5, func(fb *raster.Framebuffer) {
		for i := range fb.Depth {
			fb.Depth[i] = float32(i) / 64
			fb.Color[3*i] = uint8(i)
		}
	})
	add("single pixel", 37, 5, func(fb *raster.Framebuffer) { fb.Plot(20, 2, 0.5, 1, 2, 3) })
	add("first pixel", 37, 5, func(fb *raster.Framebuffer) { fb.Plot(0, 0, 0.5, 1, 2, 3) })
	add("last pixel", 37, 5, func(fb *raster.Framebuffer) { fb.Plot(36, 4, 0.5, 1, 2, 3) })
	add("run across a row's end", 37, 5, func(fb *raster.Framebuffer) {
		for i := 2*37 - 9; i < 2*37+11; i++ {
			fb.Plot(i%37, i/37, 0.25, 9, 9, 9)
		}
	})
	add("NaN and -0 depth", 37, 5, func(fb *raster.Framebuffer) {
		fb.Depth[40], fb.Depth[41], fb.Depth[100] = nan, negZero, nan
	})
	add("black at depth 0", 37, 5, func(fb *raster.Framebuffer) { fb.Depth[50] = 0 })
	add("+Inf depth with colour", 37, 5, func(fb *raster.Framebuffer) {
		fb.Set(5, 1, 0, 0, 1)
		fb.Depth[60], fb.Color[3*60+1] = inf, 200
	})
	add("colour inside a solid stretch", 64, 4, func(fb *raster.Framebuffer) {
		for i := 10; i < 120; i++ {
			fb.Depth[i], fb.Color[3*i] = 0.5, 1
		}
		fb.Depth[30], fb.Depth[77] = inf, nan // drawn by colour alone, in a run
		fb.Depth[90], fb.Color[3*90] = inf, 0 // cleared: splits the run
	})
	add("one by one", 1, 1, func(fb *raster.Framebuffer) { fb.Plot(0, 0, -1, 255, 255, 255) })
	return cases
}

// TestPropSpanFrameRoundTrip: DecodeFrame(AppendFrame(fb)) is fb, bit for
// bit, for the cases above and for random buffers of random density.
func TestPropSpanFrameRoundTrip(t *testing.T) {
	cases := spanCases()
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 200; i++ {
		fb := raster.NewFramebuffer(1+rng.Intn(70), 1+rng.Intn(20))
		density := rng.Float64() * rng.Float64()
		for p := 0; p < len(fb.Depth); p++ {
			if rng.Float64() >= density {
				continue
			}
			// A stretch, so that eight-at-a-time and one-at-a-time both run.
			for n := 1 + rng.Intn(40); n > 0 && p < len(fb.Depth); n, p = n-1, p+1 {
				switch rng.Intn(12) {
				case 0:
					fb.Depth[p] = float32(math.NaN())
				case 1:
					fb.Color[3*p+rng.Intn(3)] = uint8(1 + rng.Intn(255)) // colour, no depth
				case 2:
					fb.Depth[p] = rng.Float32() // depth, black
				default:
					fb.Depth[p] = rng.Float32()*2 - 1
					fb.Color[3*p], fb.Color[3*p+1], fb.Color[3*p+2] = uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256))
				}
			}
		}
		cases["random "+string(rune('A'+i%26))+string(rune('a'+i/26))] = fb
	}
	for name, fb := range cases {
		enc := AppendFrame(nil, fb, true)
		back, err := DecodeFrame(enc)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		sameFrame(t, name, back, fb)
		if again := AppendFrame(nil, back, true); !bytes.Equal(again, enc) {
			t.Errorf("%s: re-encoding differs", name)
		}
	}
	if n := len(AppendFrame(nil, cases["empty"], true)); n != 21 {
		t.Errorf("a cleared 37x5 frame is %d bytes on the wire, want 21", n)
	}
}

// spanFrame hand-builds a spans encoding: runs as (start, length) pairs,
// then colour bytes and depth words as given.
func spanFrame(w, h int, flag byte, runs [][2]uint32, colour []byte, depth []uint32) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(w))
	b = binary.BigEndian.AppendUint32(b, uint32(h))
	b = append(b, flag)
	b = binary.BigEndian.AppendUint32(b, uint32(len(runs)))
	for _, r := range runs {
		b = binary.BigEndian.AppendUint32(b, r[0])
		b = binary.BigEndian.AppendUint32(b, r[1])
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(colour)))
	b = append(b, colour...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(depth)))
	for _, d := range depth {
		b = binary.BigEndian.AppendUint32(b, d)
	}
	return b
}

// TestMalformedSpanFramesRefused: each way a spans frame can lie about
// its runs is an error, never a panic or a buffer that differs from what
// AppendFrame would have sent.
func TestMalformedSpanFramesRefused(t *testing.T) {
	const half = 0x3f000000 // 0.5
	px := func(n int) []byte { return bytes.Repeat([]byte{1, 2, 3}, n) }
	dp := func(n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = half
		}
		return out
	}
	good := spanFrame(8, 4, frameSpans, [][2]uint32{{3, 2}, {10, 3}}, px(5), dp(5))
	if fb, err := DecodeFrame(good); err != nil || fb.CoveredPixels() != 5 || fb.DepthAt(2, 1) != 0.5 {
		t.Fatalf("well-formed frame refused or misread: %v", err)
	}
	truncated := spanFrame(8, 4, frameSpans, [][2]uint32{{3, 2}}, px(2), dp(2))
	cleared := dp(5)
	cleared[3] = clearedDepth
	clearedColour := px(5)
	copy(clearedColour[9:], []byte{0, 0, 0})
	longCleared, longClearedColour := dp(12), px(12) // the same inside an eight-pixel step
	longCleared[5] = clearedDepth
	copy(longClearedColour[15:], []byte{0, 0, 0})
	// What flag 1 used to mean: the whole colour plane, the whole depth plane.
	dense := append(spanFrame(8, 4, 1, nil, nil, nil)[:9], spanFrame(0, 0, 0, nil, px(32), dp(32))[13:]...)
	for name, enc := range map[string][]byte{
		"overlapping runs":            spanFrame(8, 4, frameSpans, [][2]uint32{{3, 3}, {5, 2}}, px(5), dp(5)),
		"adjacent runs":               spanFrame(8, 4, frameSpans, [][2]uint32{{3, 2}, {5, 3}}, px(5), dp(5)),
		"descending runs":             spanFrame(8, 4, frameSpans, [][2]uint32{{10, 3}, {3, 2}}, px(5), dp(5)),
		"run past w×h":                spanFrame(8, 4, frameSpans, [][2]uint32{{3, 2}, {30, 3}}, px(5), dp(5)),
		"run starting past w×h":       spanFrame(8, 4, frameSpans, [][2]uint32{{3, 2}, {32, 3}}, px(5), dp(5)),
		"run length wraps":            spanFrame(8, 4, frameSpans, [][2]uint32{{3, 2}, {10, 0xfffffffd}}, px(5), dp(5)),
		"zero-length run":             spanFrame(8, 4, frameSpans, [][2]uint32{{3, 2}, {10, 0}, {12, 3}}, px(5), dp(5)),
		"runs cover less than sent":   spanFrame(8, 4, frameSpans, [][2]uint32{{3, 2}, {10, 2}}, px(5), dp(5)),
		"runs cover more than sent":   spanFrame(8, 4, frameSpans, [][2]uint32{{3, 2}, {10, 4}}, px(5), dp(5)),
		"colour slab short":           spanFrame(8, 4, frameSpans, [][2]uint32{{3, 2}, {10, 3}}, px(4), dp(5)),
		"cleared pixel in a run":      spanFrame(8, 4, frameSpans, [][2]uint32{{3, 2}, {10, 3}}, clearedColour, cleared),
		"cleared pixel in a long run": spanFrame(8, 4, frameSpans, [][2]uint32{{3, 12}}, longClearedColour, longCleared),
		"flag 1":                      spanFrame(8, 4, 1, [][2]uint32{{3, 2}, {10, 3}}, px(5), dp(5)),
		"flag 3":                      spanFrame(8, 4, 3, [][2]uint32{{3, 2}, {10, 3}}, px(5), dp(5)),
		"dense depth, as it was":      dense,
		"trailing byte":               append(bytes.Clone(good), 0),
		"truncated slab":              truncated[:len(truncated)-3],
		"too many pixels":             spanFrame(4096, 4096, frameSpans, nil, nil, nil),
		"zero width":                  spanFrame(0, 4, frameSpans, nil, nil, nil),
	} {
		if fb, err := DecodeFrame(enc); err == nil {
			t.Errorf("%s: accepted as a %dx%d frame", name, fb.W, fb.H)
		}
	}
	if w, h, err := FrameDims(good); err != nil || w != 8 || h != 4 {
		t.Errorf("FrameDims = %d, %d, %v", w, h, err)
	}
	if _, _, err := FrameDims(good[:7]); err == nil {
		t.Error("FrameDims read a size from seven bytes")
	}
}
