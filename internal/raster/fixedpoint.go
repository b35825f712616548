package raster

import (
	"math"
	"sync"
)

// Fixed-point scanline core.
//
// Vertices are snapped to a 26.6 subpixel grid (64 units per pixel) in
// toScreen, and coverage is decided by integer edge functions evaluated
// incrementally: the three edge values are computed once per triangle at
// the bounding-box origin and then stepped by constant per-pixel /
// per-row deltas. Integer addition is exact, so incremental stepping is
// bit-identical to direct evaluation — and, because every snapped
// coordinate is a multiple of 1/64 small enough that the float64 edge
// products stay below 2^53, it is also bit-identical to the float
// reference core (reference.go) evaluating the same edge functions
// directly in float64. That exactness is what the differential
// pixel-parity suite (parity_test.go) and FuzzEdgeFunction pin.
//
// Fill rule: a pixel centre exactly on an edge (edge value 0) belongs to
// the triangle only when the edge is a top or left edge, so two
// triangles sharing an edge shade every seam pixel exactly once — no
// double-shaded and no missed seam pixels. With screen y growing
// downward and front faces winding clockwise (negative signed area,
// interior where every edge value is <= 0), a left edge has dy > 0 and a
// top edge has dy == 0 && dx < 0. The rule is folded into an integer
// bias (0 for top-left edges, 1 otherwise) so the interior test is a
// single comparison: e + bias <= 0.
//
// Instead of testing every bounding-box pixel, each covered scanline is
// reduced to one span [lo, hi] by solving the three half-plane
// constraints e + i*d <= 0 for the pixel index i (exact integer floor /
// ceil division; across a box at most narrowBox pixels wide the three
// values are stepped and tested instead). Spans are buffered in struct-of-arrays span buffers
// sized per band, and a separate flat attribute loop interpolates
// depth and color over the buffered spans — the layout keeps the hot
// loop free of per-pixel coverage branches.
//
// Early-z: each band tracks a conservative upper bound of its depth
// buffer (+Inf until the band is fully covered, then the scanned
// maximum, rescanned every scanEvery triangles — stale bounds stay
// valid because depth writes only decrease values). Triangles and spans
// whose conservative minimum z cannot beat the bound are skipped before
// any per-pixel work. Skips never change output: they only elide writes
// the depth test would reject anyway.

const (
	// subBits is the subpixel precision: 26.6 fixed point, 64 units per
	// pixel.
	subBits  = 6
	subScale = 1 << subBits
	subHalf  = subScale / 2
	// fixedToFloat converts an integer edge value (units of 1/64 x 1/64
	// pixels) to float pixels^2. A power of two, so the conversion
	// multiply is exact.
	fixedToFloat = 1.0 / float64(subScale*subScale)
	// coordLimit is the snap guard band in subpixel units (2^18 pixels).
	// Clamping keeps every edge product below 2^53, so the float64
	// reference evaluation stays exact and int64 stepping cannot
	// overflow.
	coordLimit = 1 << 24
	// zSlack absorbs float rounding in the conservative early-z bounds
	// (depth is in NDC [-1, 1]; interpolation error is ~1e-15).
	zSlack = 1e-6
	// spanBufCap is the per-band span buffer capacity between attribute
	// flushes.
	spanBufCap = 512
	// narrowBox is the pixel-box width up to which a row's covered run
	// is found by stepping the edge values across it instead of by three
	// 64-bit divisions (spanBounds).
	narrowBox = 8
)

// snapCoord converts a float screen coordinate (in pixels) to 26.6
// fixed point, clamping non-finite and out-of-guard-band values.
func snapCoord(v float64) int32 {
	s := math.Round(v * subScale)
	switch {
	case math.IsNaN(s):
		return 0
	case s < -coordLimit:
		return -coordLimit
	case s > coordLimit:
		return coordLimit
	}
	return int32(s)
}

// triSetup is one projected triangle after shared setup. It holds only
// what the triangle owns — the pixel box, the integer edge equations,
// 1/area and the early-z bound — and names its three vertex records
// (setupList) for everything a vertex owns: depth, 1/w, colour and the
// snapped position the reference core evaluates its float edges from.
// One is written and read back per drawn triangle per frame, so its size
// is memory traffic (TestSetupRecordStaysLean).
type triSetup struct {
	// The pixels whose centres the triangle's bounding box holds,
	// clamped to the framebuffer (see pixelBox); never empty.
	minX, minY, maxX, maxY int32

	// Edge values at the centre of pixel (minX, minY) and their
	// per-pixel / per-row deltas, in subpixel^2 units. Edge k runs from
	// vertex k+1 to k+2 (mod 3); the interior satisfies e + bias <= 0.
	e0, e1, e2          int64
	dE0dx, dE1dx, dE2dx int64
	dE0dy, dE1dy, dE2dy int64

	// invArea is 1 / (signed double area in pixels^2), negative for
	// front faces.
	invArea float64

	// minZ is the smallest vertex depth — the conservative early-z
	// bound for the whole triangle.
	minZ float64

	// v names the three vertex records (setupList says how).
	v [3]int32

	// bias folds the top-left fill rule into the interior test: 0 for
	// top-left edges (pixel centres exactly on the edge are covered),
	// 1 otherwise.
	bias0, bias1, bias2 int8
}

// edgeBias returns the fill-rule bias for an edge with direction
// (dx, dy) in subpixel units: 0 when the edge is top-left (its zero set
// is covered), 1 otherwise.
func edgeBias(dx, dy int64) int64 {
	if dy > 0 || (dy == 0 && dx < 0) {
		return 0
	}
	return 1
}

// pixelBox returns the range of pixels whose centres lie inside the
// snapped triangle's bounding box, clamped to a w x h framebuffer; the
// box is empty when minX > maxX or minY > maxY. Pixel i's centre sits at
// subpixel i*64+32, so the range is exact integer arithmetic on the
// snapped coordinates. Coverage is decided at pixel centres, so a pixel
// outside this box is outside the triangle.
func pixelBox(v0, v1, v2 *screenVert, w, h int) (minX, minY, maxX, maxY int) {
	minX = max(int((min(v0.sx, v1.sx, v2.sx)+subHalf-1)>>subBits), 0)
	maxX = min(int((max(v0.sx, v1.sx, v2.sx)-subHalf)>>subBits), w-1)
	minY = max(int((min(v0.sy, v1.sy, v2.sy)+subHalf-1)>>subBits), 0)
	maxY = min(int((max(v0.sy, v1.sy, v2.sy)-subHalf)>>subBits), h-1)
	return
}

// appendSetup builds the shared per-triangle setup from snapped screen
// vertices (i0, i1, i2 are the indices the record names them by) in a
// new slot at the end of out, appended in place — kept allocation-free
// once out has grown, and every field is assigned, so a reused slot is
// not cleared first. A triangle whose pixel box is empty — off the
// framebuffer, or a sliver between pixel centres — can shade nothing and
// gets no slot; the caller still counts it as drawn.
func appendSetup(out []triSetup, v0, v1, v2 *screenVert, i0, i1, i2 int32, w, h int) []triSetup {
	minX, minY, maxX, maxY := pixelBox(v0, v1, v2, w, h)
	if minX > maxX || minY > maxY {
		return out
	}
	if len(out) < cap(out) {
		out = out[:len(out)+1]
	} else {
		out = append(out, triSetup{})
	}
	t := &out[len(out)-1]
	t.minX, t.minY, t.maxX, t.maxY = int32(minX), int32(minY), int32(maxX), int32(maxY)
	t.v = [3]int32{i0, i1, i2}
	t.minZ = min(v0.z, v1.z, v2.z)

	x0, y0 := int64(v0.sx), int64(v0.sy)
	x1, y1 := int64(v1.sx), int64(v1.sy)
	x2, y2 := int64(v2.sx), int64(v2.sy)
	// Centre of the bounding-box origin pixel, in subpixel units.
	px := int64(minX)*subScale + subHalf
	py := int64(minY)*subScale + subHalf

	// Edge 0: v1 -> v2.
	dx, dy := x2-x1, y2-y1
	t.e0 = dx*(py-y1) - dy*(px-x1)
	t.dE0dx = -dy * subScale
	t.dE0dy = dx * subScale
	t.bias0 = int8(edgeBias(dx, dy))
	// Edge 1: v2 -> v0.
	dx, dy = x0-x2, y0-y2
	t.e1 = dx*(py-y2) - dy*(px-x2)
	t.dE1dx = -dy * subScale
	t.dE1dy = dx * subScale
	t.bias1 = int8(edgeBias(dx, dy))
	// Edge 2: v0 -> v1.
	dx, dy = x1-x0, y1-y0
	t.e2 = dx*(py-y0) - dy*(px-x0)
	t.dE2dx = -dy * subScale
	t.dE2dy = dx * subScale
	t.bias2 = int8(edgeBias(dx, dy))

	// float64(area2) * fixedToFloat is exactly the float signed double
	// area the reference core computes from the snapped float coords.
	area2 := (x1-x0)*(y2-y0) - (x2-x0)*(y1-y0)
	t.invArea = 1 / (float64(area2) * fixedToFloat)
	return out
}

// floorDiv returns floor(a / b) for b > 0.
func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}

// ceilDiv returns ceil(a / b) for b > 0.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && a > 0 {
		q++
	}
	return q
}

// edgeClip intersects the half-line {i : E + i*D <= 0} with [lo, hi].
func edgeClip(E, D, lo, hi int64) (int64, int64) {
	switch {
	case D == 0:
		if E > 0 {
			return 1, 0
		}
	case D > 0:
		if h := floorDiv(-E, D); h < hi {
			hi = h
		}
	default:
		if l := ceilDiv(E, -D); l > lo {
			lo = l
		}
	}
	return lo, hi
}

// spanBounds solves the three biased edge constraints for the covered
// pixel-index range [lo, hi] of one scanline (lo > hi when empty). The
// inputs are the biased edge values at pixel index 0 and the per-pixel
// deltas; n is the scanline width in pixels.
func spanBounds(E0, D0, E1, D1, E2, D2, n int64) (int64, int64) {
	if n <= narrowBox {
		// Step the three values across the box: E <= 0 is the sign bit
		// of E-1, and the covered pixels are one contiguous run.
		lo, hi := n, int64(-1)
		for i := int64(0); i < n; i++ {
			if (E0-1)&(E1-1)&(E2-1) < 0 {
				lo, hi = min(lo, i), i
			} else if hi >= 0 {
				break
			}
			E0, E1, E2 = E0+D0, E1+D1, E2+D2
		}
		return lo, hi
	}
	lo, hi := int64(0), n-1
	lo, hi = edgeClip(E0, D0, lo, hi)
	if lo > hi {
		return lo, hi
	}
	lo, hi = edgeClip(E1, D1, lo, hi)
	if lo > hi {
		return lo, hi
	}
	return edgeClip(E2, D2, lo, hi)
}

// bandScratch is one band's working state: the struct-of-arrays span
// buffer, the conservative early-z bound, and the work counters the
// band reports to telemetry.
type bandScratch struct {
	// Span buffer (struct of arrays): for each buffered span the
	// triangle index, row, first pixel x, pixel count, and the two edge
	// values at the first pixel.
	tri []int32
	y   []int32
	x0  []int32
	n   []int32
	e0  []int64
	e1  []int64

	// Early-z state.
	zBound    float32 // conservative upper bound of the band's depth
	zFinite   bool    // zBound < +Inf: the whole band has been covered
	scanEvery int     // triangles between depth rescans
	sinceScan int

	// Work counters (flushed to telemetry once per band).
	spans      int64
	pixels     int64
	earlySpans int64
	earlyTris  int64
}

// scratchPool recycles band scratch across frames and bands; the span
// buffers are the only rasterization-time allocations left.
var scratchPool = sync.Pool{New: func() any { return new(bandScratch) }}

func (sc *bandScratch) init(triangles int) {
	if sc.tri == nil {
		sc.tri = make([]int32, 0, spanBufCap)
		sc.y = make([]int32, 0, spanBufCap)
		sc.x0 = make([]int32, 0, spanBufCap)
		sc.n = make([]int32, 0, spanBufCap)
		sc.e0 = make([]int64, 0, spanBufCap)
		sc.e1 = make([]int64, 0, spanBufCap)
	}
	sc.zBound = float32(math.Inf(1))
	sc.zFinite = false
	sc.scanEvery = triangles / 16
	if sc.scanEvery < 64 {
		sc.scanEvery = 64
	}
	sc.sinceScan = 0
	sc.spans, sc.pixels = 0, 0
	sc.earlySpans, sc.earlyTris = 0, 0
}

// rescanZ refreshes the band's conservative depth bound. The scan
// bails out at the first uncovered (+Inf) pixel, so it is O(1) until
// the band saturates; afterwards the bound lets whole occluded spans
// and triangles be rejected.
func (sc *bandScratch) rescanZ(fb *Framebuffer, y0, y1 int) {
	zmax := float32(math.Inf(-1))
	for _, d := range fb.Depth[y0*fb.W : y1*fb.W] {
		if d > zmax {
			zmax = d
			if math.IsInf(float64(d), 1) {
				break
			}
		}
	}
	sc.zBound = zmax
	sc.zFinite = !math.IsInf(float64(zmax), 1)
}

// spanZ interpolates depth at one span endpoint from the two edge
// values (the same expression shape the attribute loop uses).
func spanZ(t *triSetup, z0, z1, z2 float64, e0, e1 int64) float64 {
	w0 := (float64(e0) * fixedToFloat) * t.invArea
	w1 := (float64(e1) * fixedToFloat) * t.invArea
	return w0*z0 + w1*z1 + (1-w0-w1)*z2
}

// admitSpan applies the early-z span test: when the band's depth bound
// is finite and the span's conservative minimum depth (z is linear
// along the span, so the minimum is at an endpoint) cannot beat it,
// the span is rejected before any per-pixel work.
func (sc *bandScratch) admitSpan(ms *meshScratch, l *setupList, t *triSetup, e0, e1, iMax int64) bool {
	if !sc.zFinite {
		return true
	}
	z0, z1, z2 := ms.vert(l, t.v[0]).z, ms.vert(l, t.v[1]).z, ms.vert(l, t.v[2]).z
	zLo := spanZ(t, z0, z1, z2, e0, e1)
	zHi := spanZ(t, z0, z1, z2, e0+iMax*t.dE0dx, e1+iMax*t.dE1dx)
	if math.Min(zLo, zHi)-zSlack >= float64(sc.zBound) {
		sc.earlySpans++
		return false
	}
	return true
}

func (sc *bandScratch) push(tri, y, x0, n int32, e0, e1 int64) {
	sc.tri = append(sc.tri, tri)
	sc.y = append(sc.y, y)
	sc.x0 = append(sc.x0, x0)
	sc.n = append(sc.n, n)
	sc.e0 = append(sc.e0, e0)
	sc.e1 = append(sc.e1, e1)
}

// bandRaster is the fixed-point core for one band of rows [y0, y1) over
// one setup list: walk each triangle's scanlines with incremental
// integer edge values, reduce every covered row to one span, buffer
// spans, and flush them through the flat attribute loop.
func (r *Renderer) bandRaster(ms *meshScratch, l *setupList, y0, y1 int, sc *bandScratch) {
	if y1 <= y0 {
		return
	}
	fb := r.FB
	for ti := range l.tris {
		t := &l.tris[ti]
		yS, yE := max(int(t.minY), y0), min(int(t.maxY), y1-1)
		if yS > yE {
			continue
		}
		sc.sinceScan++
		if sc.sinceScan >= sc.scanEvery {
			r.flushSpans(ms, l, sc) // pending writes must land before the scan
			sc.rescanZ(fb, y0, y1)
			sc.sinceScan = 0
		}
		if sc.zFinite && t.minZ-zSlack >= float64(sc.zBound) {
			sc.earlyTris++
			continue
		}
		n := int64(t.maxX - t.minX + 1)
		rowOff := int64(yS) - int64(t.minY)
		e0 := t.e0 + rowOff*t.dE0dy + int64(t.bias0)
		e1 := t.e1 + rowOff*t.dE1dy + int64(t.bias1)
		e2 := t.e2 + rowOff*t.dE2dy + int64(t.bias2)
		for y := yS; y <= yE; y++ {
			lo, hi := spanBounds(e0, t.dE0dx, e1, t.dE1dx, e2, t.dE2dx, n)
			if lo <= hi {
				// The attribute loop takes the unbiased edge values.
				s0 := e0 - int64(t.bias0) + lo*t.dE0dx
				s1 := e1 - int64(t.bias1) + lo*t.dE1dx
				if sc.admitSpan(ms, l, t, s0, s1, hi-lo) {
					sc.push(int32(ti), int32(y), t.minX+int32(lo), int32(hi-lo+1), s0, s1)
					if len(sc.tri) == spanBufCap {
						r.flushSpans(ms, l, sc)
					}
				}
			}
			e0 += t.dE0dy
			e1 += t.dE1dy
			e2 += t.dE2dy
		}
	}
	r.flushSpans(ms, l, sc)
}

// flushSpans runs the attribute-interpolation loop over the spans
// buffered from list l: every pixel in a span is inside its triangle, so
// the loop is flat — step the two edge values, derive barycentrics,
// interpolate depth and, for a pixel that passes the depth test,
// perspective-correct color from the triangle's vertex records. The
// float expressions are kept identical to reference.go's so the two
// cores agree bit for bit.
func (r *Renderer) flushSpans(ms *meshScratch, l *setupList, sc *bandScratch) {
	fb := r.FB
	for si, ti := range sc.tri {
		t := &l.tris[ti]
		v0, v1, v2 := ms.vert(l, t.v[0]), ms.vert(l, t.v[1]), ms.vert(l, t.v[2])
		e0, e1 := sc.e0[si], sc.e1[si]
		di := int(sc.y[si])*fb.W + int(sc.x0[si])
		cnt := int(sc.n[si])
		for i := 0; i < cnt; i++ {
			w0 := (float64(e0) * fixedToFloat) * t.invArea
			w1 := (float64(e1) * fixedToFloat) * t.invArea
			w2 := 1 - w0 - w1
			z := w0*v0.z + w1*v1.z + w2*v2.z
			if z >= -1 && z <= 1 {
				zf := float32(z)
				if zf < fb.Depth[di] {
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
			e0 += t.dE0dx
			e1 += t.dE1dx
			di++
		}
	}
	sc.spans += int64(len(sc.tri))
	sc.tri = sc.tri[:0]
	sc.y = sc.y[:0]
	sc.x0 = sc.x0[:0]
	sc.n = sc.n[:0]
	sc.e0 = sc.e0[:0]
	sc.e1 = sc.e1[:0]
}
