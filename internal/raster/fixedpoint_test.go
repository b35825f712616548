package raster

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/mathx"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

func TestFloorCeilDiv(t *testing.T) {
	cases := []struct {
		a, b, floor, ceil int64
	}{
		{0, 1, 0, 0},
		{7, 2, 3, 4},
		{-7, 2, -4, -3},
		{6, 3, 2, 2},
		{-6, 3, -2, -2},
		{1, 64, 0, 1},
		{-1, 64, -1, 0},
		{math.MaxInt64, 1, math.MaxInt64, math.MaxInt64},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.floor {
			t.Errorf("floorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.floor)
		}
		if got := ceilDiv(c.a, c.b); got != c.ceil {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.ceil)
		}
	}
}

// TestSpanBoundsBruteForce cross-checks the integer span solution
// against per-pixel evaluation of the same three constraints.
func TestSpanBoundsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5000; trial++ {
		n := int64(1 + rng.Intn(40))
		var E, D [3]int64
		for k := 0; k < 3; k++ {
			E[k] = int64(rng.Intn(20000) - 10000)
			D[k] = int64(rng.Intn(400) - 200)
		}
		lo, hi := spanBounds(E[0], D[0], E[1], D[1], E[2], D[2], n)
		wantLo, wantHi := int64(-1), int64(-1)
		for i := int64(0); i < n; i++ {
			in := true
			for k := 0; k < 3; k++ {
				if E[k]+i*D[k] > 0 {
					in = false
					break
				}
			}
			if in {
				if wantLo == -1 {
					wantLo = i
				}
				wantHi = i
			} else if wantLo != -1 {
				// The intersection of half-lines is one contiguous run;
				// once it ends nothing past it can be inside.
				for j := i; j < n; j++ {
					all := true
					for k := 0; k < 3; k++ {
						if E[k]+j*D[k] > 0 {
							all = false
						}
					}
					if all {
						t.Fatalf("trial %d: span not contiguous", trial)
					}
				}
				break
			}
		}
		if wantLo == -1 {
			if lo <= hi {
				t.Fatalf("trial %d: spanBounds=[%d,%d], want empty", trial, lo, hi)
			}
			continue
		}
		if lo != wantLo || hi != wantHi {
			t.Fatalf("trial %d: spanBounds=[%d,%d], brute force=[%d,%d]", trial, lo, hi, wantLo, wantHi)
		}
	}
}

// TestBandWorkCounters: with Metrics set, each band flushes its work
// counters. (The pre-fixed-point renderer dropped them.)
func TestBandWorkCounters(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	met := telemetry.NewRegistry(clk)
	fb := NewFramebuffer(64, 64)
	r := New(fb)
	r.Opts.Metrics = met
	r.Opts.Service = "render"
	r.Opts.Workers = 4
	r.RenderMesh(frontTriangle(), mathx.Identity(), lookingCamera())

	snap := met.Snapshot()
	if got := snap.CounterValue("render", "raster_triangles_total", ""); got != 1 {
		t.Errorf("raster_triangles_total = %d, want 1", got)
	}
	if got := snap.CounterValue("render", "raster_pixels_total", ""); got == 0 {
		t.Error("raster_pixels_total = 0, want > 0")
	}
	if got := snap.CounterValue("render", "raster_spans_total", ""); got == 0 {
		t.Error("raster_spans_total = 0, want > 0")
	}
}

// TestEarlyZRejectsOccluded renders a near quad and then many far
// triangles behind it in a single mesh: the far geometry must be
// rejected by the early-z counters, and — because early-z is
// conservative — the image must still match the reference core, which
// has no early-z at all.
func TestEarlyZRejectsOccluded(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	met := telemetry.NewRegistry(clk)

	// One mesh: a screen-filling near quad first, then 600 far
	// triangles behind it. The quad must cover every band pixel —
	// the per-band depth bound stays +Inf (early-z disarmed) until the
	// whole band has been written.
	m := sharedEdgeMesh()
	transformMesh(m, mathx.Scale(mathx.V3(4, 4, 1)))
	m.SetUniformColor(mathx.V3(0.2, 0.4, 0.9))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 600; i++ {
		base := uint32(len(m.Positions))
		cx := rng.Float64()*1.2 - 0.6
		cy := rng.Float64()*1.2 - 0.6
		m.Positions = append(m.Positions,
			mathx.V3(cx-0.1, cy-0.1, -3), mathx.V3(cx+0.1, cy-0.1, -3), mathx.V3(cx, cy+0.1, -3))
		m.Colors = append(m.Colors,
			mathx.V3(1, 0, 0), mathx.V3(1, 0, 0), mathx.V3(1, 0, 0))
		m.Indices = append(m.Indices, base, base+1, base+2)
	}

	draw := func(r *Renderer) {
		r.Opts.Ambient = 1
		r.RenderMesh(m, mathx.Identity(), lookingCamera())
	}
	fixed, ref := renderBoth(64, 64, func(r *Renderer) {
		r.Opts.Metrics = met
		r.Opts.Service = "render"
	}, draw)
	assertParity(t, "earlyz", fixed, ref)

	snap := met.Snapshot()
	rejected := snap.CounterValue("render", "raster_earlyz_tris_total", "") +
		snap.CounterValue("render", "raster_earlyz_spans_total", "")
	if rejected == 0 {
		t.Error("early-z rejected nothing in a heavily occluded scene")
	}
}

// TestSharedEdgeSeamExactlyOnce pins the top-left fill rule's seam
// contract: rendering the two halves of a quad separately, no pixel
// may be covered by both (double shade), and their union must equal
// the coverage of rendering the whole quad (no missed seam pixels).
func TestSharedEdgeSeamExactlyOnce(t *testing.T) {
	quad := sharedEdgeMesh()
	half := func(lo, hi int) *Framebuffer {
		m := *quad
		m.Indices = quad.Indices[lo:hi]
		fb := NewFramebuffer(64, 64)
		r := New(fb)
		r.Opts.Ambient = 1
		r.RenderMesh(&m, mathx.Identity(), lookingCamera())
		return fb
	}
	a := half(0, 3)
	b := half(3, 6)
	both := renderSharedEdge(nil)

	covered := func(fb *Framebuffer, i int) bool { return !math.IsInf(float64(fb.Depth[i]), 1) }
	for i := range both.Depth {
		inA, inB, inBoth := covered(a, i), covered(b, i), covered(both, i)
		x, y := i%64, i/64
		if inA && inB {
			t.Fatalf("pixel (%d,%d) shaded by both seam triangles", x, y)
		}
		if (inA || inB) != inBoth {
			t.Fatalf("pixel (%d,%d): separate coverage %v/%v but joint %v", x, y, inA, inB, inBoth)
		}
	}
	// The seam itself must be covered: the quad's interior has no holes.
	if got, want := both.CoveredPixels(), a.CoveredPixels()+b.CoveredPixels(); got != want {
		t.Fatalf("joint coverage %d != sum of halves %d", got, want)
	}
}
