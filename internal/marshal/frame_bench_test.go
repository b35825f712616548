package marshal

import (
	"testing"

	"repro/internal/raster"
)

// benchFrame is a 640×480 framebuffer with the middle share of every row
// drawn: 0 is a cleared buffer, 1 the coding's worst case.
func benchFrame(share float64) *raster.Framebuffer {
	fb := raster.NewFramebuffer(640, 480)
	n := int(share * float64(fb.W))
	for y := 0; y < fb.H; y++ {
		for x := (fb.W - n) / 2; x < (fb.W+n)/2; x++ {
			fb.Plot(x, y, float32(x-y)/640, uint8(x), uint8(y), uint8(x^y)|1)
		}
	}
	return fb
}

// BenchmarkFrameCodec times the colour+depth return path's two ends on a
// cleared, a typical (the fan-out workloads draw about 4 % of a subset's
// buffer) and a fully drawn 640×480 frame. Recorded in EXPERIMENTS.md,
// gated nowhere.
func BenchmarkFrameCodec(b *testing.B) {
	for _, c := range []struct {
		name  string
		share float64
	}{{"empty", 0}, {"4pct", 0.04}, {"full", 1}} {
		fb := benchFrame(c.share)
		enc := AppendFrame(nil, fb, true)
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				enc = AppendFrame(nil, fb, true)
			}
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if _, err := DecodeFrame(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
