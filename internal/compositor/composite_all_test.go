package compositor

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/raster"
)

// compositeAllByClearing is CompositeAll as it was: every part, the
// first included, depth-merged into a freshly cleared buffer. It is the
// oracle the first-part-is-taken implementation must equal byte for byte.
func compositeAllByClearing(w, h int, parts ...*raster.Framebuffer) (*raster.Framebuffer, error) {
	out := raster.NewFramebuffer(w, h)
	for _, p := range parts {
		if err := DepthComposite(out, p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// randomPart draws from a few depths so that parts tie, and leaves some
// pixels cleared, some NaN, and some coloured at +Inf — which no depth
// test lets through, so the composite shows them black.
func randomPart(rng *rand.Rand, w, h int) *raster.Framebuffer {
	fb := raster.NewFramebuffer(w, h)
	depths := []float32{-1, -0.25, 0, 0.5, 0.5, 1, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for i := range fb.Depth {
		if rng.Intn(3) == 0 {
			continue
		}
		fb.Depth[i] = depths[rng.Intn(len(depths))]
		fb.Color[3*i], fb.Color[3*i+1], fb.Color[3*i+2] = uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(1+rng.Intn(255))
	}
	return fb
}

// TestCompositeAllEqualsMergingIntoAClearedBuffer: for 0–4 random parts,
// with a wrong-sized part in any position or none, CompositeAll returns
// the oracle's buffer bit for bit or the oracle's error, and leaves its
// parts untouched.
func TestCompositeAllEqualsMergingIntoAClearedBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for round := 0; round < 300; round++ {
		w, h := 1+rng.Intn(24), 1+rng.Intn(12)
		parts := make([]*raster.Framebuffer, rng.Intn(5))
		for i := range parts {
			parts[i] = randomPart(rng, w, h)
		}
		if len(parts) > 0 && rng.Intn(4) == 0 {
			parts[rng.Intn(len(parts))] = randomPart(rng, w+1, h)
		}
		before := make([]*raster.Framebuffer, len(parts))
		for i, p := range parts {
			before[i] = p.Clone()
		}
		want, wantErr := compositeAllByClearing(w, h, parts...)
		got, err := CompositeAll(w, h, parts...)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("round %d: error %v, want %v", round, err, wantErr)
		}
		if err == nil && !sameBits(got, want) {
			t.Fatalf("round %d: %d parts composite differently from merging into a cleared buffer", round, len(parts))
		}
		for i, p := range parts {
			if !sameBits(p, before[i]) {
				t.Fatalf("round %d: part %d was modified", round, i)
			}
			if got != nil && len(got.Depth) > 0 && (&got.Depth[0] == &p.Depth[0] || &got.Color[0] == &p.Color[0]) {
				t.Fatalf("round %d: the composite shares part %d's planes", round, i)
			}
		}
	}
}

func sameBits(a, b *raster.Framebuffer) bool {
	if a.W != b.W || a.H != b.H || !bytes.Equal(a.Color, b.Color) || len(a.Depth) != len(b.Depth) {
		return false
	}
	for i := range a.Depth {
		if math.Float32bits(a.Depth[i]) != math.Float32bits(b.Depth[i]) {
			return false
		}
	}
	return true
}

var sinkFB *raster.Framebuffer

// BenchmarkCompositeAll merges two 640×480 subset buffers that each drew
// 4 % of the viewport, as subset_fanout's do. Recorded in
// EXPERIMENTS.md, gated nowhere.
func BenchmarkCompositeAll(b *testing.B) {
	parts := []*raster.Framebuffer{raster.NewFramebuffer(640, 480), raster.NewFramebuffer(640, 480)}
	for i, fb := range parts {
		for y := 200; y < 280; y++ {
			for x := 200 + 60*i; x < 360+60*i; x++ {
				fb.Plot(x, y, float32(x+i)/640, uint8(x), uint8(y), 255)
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkFB, _ = CompositeAll(640, 480, parts...)
	}
}
