package raster

import "math"

// Float reference core for differential testing.
//
// referenceBand rasterizes the same triSetup list as bandRaster
// (fixedpoint.go), but the slow, obvious way: every bounding-box pixel
// evaluates all three edge functions directly in float64 from the
// snapped vertex positions. Snapped coordinates are multiples of 1/64
// pixel inside the coordLimit guard band, so every product and
// difference below is exactly representable in float64 — the float
// edge values are bit-identical to the fixed-point core's integer
// edge values (scaled by fixedToFloat), and the two cores classify and
// shade every pixel identically. The parity suite (parity_test.go)
// renders both and asserts byte-equal framebuffers.
//
// The attribute expressions are kept textually identical to
// flushSpans so both cores round (and, on platforms that fuse
// multiply-adds, fuse) the same way.

// referenceBand fills triangles into rows [y0, y1) by direct per-pixel
// float edge evaluation. Selected via (*Renderer).UseReferenceCore.
func (r *Renderer) referenceBand(setups []triSetup, y0, y1 int, sc *bandScratch) {
	fb := r.FB
	for ti := range setups {
		t := &setups[ti]
		// The floor/ceil box of the snapped corners, not the setup's
		// pixel-centre box: the reference tests every pixel near the
		// triangle, so a covered pixel that pixelBox left out is a
		// parity failure.
		minX := max(int(math.Floor(min(t.x0f, t.x1f, t.x2f))), 0)
		maxX := min(int(math.Ceil(max(t.x0f, t.x1f, t.x2f))), fb.W-1)
		yS := max(int(math.Floor(min(t.y0f, t.y1f, t.y2f))), y0)
		yE := min(int(math.Ceil(max(t.y0f, t.y1f, t.y2f))), y1-1)
		for y := yS; y <= yE; y++ {
			py := float64(y) + 0.5
			for x := minX; x <= maxX; x++ {
				px := float64(x) + 0.5
				// Edge functions from the snapped float positions; the
				// interior is where all three are <= 0, with pixel
				// centres exactly on a non-top-left edge excluded (the
				// same top-left rule the integer bias encodes).
				e0 := (t.x2f-t.x1f)*(py-t.y1f) - (t.y2f-t.y1f)*(px-t.x1f)
				if e0 > 0 || (e0 == 0 && t.bias0 != 0) {
					continue
				}
				e1 := (t.x0f-t.x2f)*(py-t.y2f) - (t.y0f-t.y2f)*(px-t.x2f)
				if e1 > 0 || (e1 == 0 && t.bias1 != 0) {
					continue
				}
				e2 := (t.x1f-t.x0f)*(py-t.y0f) - (t.y1f-t.y0f)*(px-t.x0f)
				if e2 > 0 || (e2 == 0 && t.bias2 != 0) {
					continue
				}
				w0 := e0 * t.invArea
				w1 := e1 * t.invArea
				w2 := 1 - w0 - w1
				z := w0*t.z0 + w1*t.z1 + w2*t.z2
				if z < -1 || z > 1 {
					continue
				}
				di := y*fb.W + x
				zf := float32(z)
				if zf >= fb.Depth[di] {
					continue
				}
				// Perspective-correct color interpolation.
				iw := w0*t.iw0 + w1*t.iw1 + w2*t.iw2
				cr := (w0*t.c0.X*t.iw0 + w1*t.c1.X*t.iw1 + w2*t.c2.X*t.iw2) / iw
				cg := (w0*t.c0.Y*t.iw0 + w1*t.c1.Y*t.iw1 + w2*t.c2.Y*t.iw2) / iw
				cb := (w0*t.c0.Z*t.iw0 + w1*t.c1.Z*t.iw1 + w2*t.c2.Z*t.iw2) / iw
				fb.Depth[di] = zf
				ci := di * 3
				fb.Color[ci] = toByte(cr)
				fb.Color[ci+1] = toByte(cg)
				fb.Color[ci+2] = toByte(cb)
				sc.pixels++
			}
		}
	}
}
