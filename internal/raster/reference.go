package raster

import "math"

// Float reference core for differential testing.
//
// referenceBand rasterizes the same setup lists as bandRaster
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
func (r *Renderer) referenceBand(ms *meshScratch, l *setupList, y0, y1 int, sc *bandScratch) {
	fb := r.FB
	for ti := range l.tris {
		t := &l.tris[ti]
		v0, v1, v2 := ms.vert(l, t.v[0]), ms.vert(l, t.v[1]), ms.vert(l, t.v[2])
		// The snapped positions as floats: multiples of 1/64 pixel.
		x0f, y0f := float64(v0.sx)/subScale, float64(v0.sy)/subScale
		x1f, y1f := float64(v1.sx)/subScale, float64(v1.sy)/subScale
		x2f, y2f := float64(v2.sx)/subScale, float64(v2.sy)/subScale
		// The floor/ceil box of the snapped corners, not the setup's
		// pixel-centre box: the reference tests every pixel near the
		// triangle, so a covered pixel that pixelBox left out is a
		// parity failure.
		minX := max(int(math.Floor(min(x0f, x1f, x2f))), 0)
		maxX := min(int(math.Ceil(max(x0f, x1f, x2f))), fb.W-1)
		yS := max(int(math.Floor(min(y0f, y1f, y2f))), y0)
		yE := min(int(math.Ceil(max(y0f, y1f, y2f))), y1-1)
		for y := yS; y <= yE; y++ {
			py := float64(y) + 0.5
			for x := minX; x <= maxX; x++ {
				px := float64(x) + 0.5
				// Edge functions from the snapped float positions; the
				// interior is where all three are <= 0, with pixel
				// centres exactly on a non-top-left edge excluded (the
				// same top-left rule the integer bias encodes).
				e0 := (x2f-x1f)*(py-y1f) - (y2f-y1f)*(px-x1f)
				if e0 > 0 || (e0 == 0 && t.bias0 != 0) {
					continue
				}
				e1 := (x0f-x2f)*(py-y2f) - (y0f-y2f)*(px-x2f)
				if e1 > 0 || (e1 == 0 && t.bias1 != 0) {
					continue
				}
				e2 := (x1f-x0f)*(py-y0f) - (y1f-y0f)*(px-x0f)
				if e2 > 0 || (e2 == 0 && t.bias2 != 0) {
					continue
				}
				w0 := e0 * t.invArea
				w1 := e1 * t.invArea
				w2 := 1 - w0 - w1
				z := w0*v0.z + w1*v1.z + w2*v2.z
				if z < -1 || z > 1 {
					continue
				}
				di := y*fb.W + x
				zf := float32(z)
				if zf >= fb.Depth[di] {
					continue
				}
				// Perspective-correct color interpolation.
				iw := w0*v0.invW + w1*v1.invW + w2*v2.invW
				cr := (w0*v0.color.X*v0.invW + w1*v1.color.X*v1.invW + w2*v2.color.X*v2.invW) / iw
				cg := (w0*v0.color.Y*v0.invW + w1*v1.color.Y*v1.invW + w2*v2.color.Y*v2.invW) / iw
				cb := (w0*v0.color.Z*v0.invW + w1*v1.color.Z*v1.invW + w2*v2.color.Z*v2.invW) / iw
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
