package raster

import (
	"image"
	"math"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// Options controls a render pass.
type Options struct {
	// Light is the direction towards the light source, in world space.
	Light mathx.Vec3
	// Ambient is the ambient light fraction in [0, 1].
	Ambient float64
	// Workers is the number of goroutines a mesh's vertex, setup and
	// scanline-band stages are each split across; values below 2 render
	// sequentially. The image does not depend on it.
	Workers int
	// Tile restricts rendering to this rectangle of the full image
	// (framebuffer distribution). The framebuffer must be exactly the
	// tile's size. A zero rectangle renders the full image.
	Tile image.Rectangle
	// FullW, FullH give the full image size when rendering a tile. When
	// zero they default to the framebuffer size.
	FullW, FullH int
	// DefaultColor is used for meshes without vertex colors.
	DefaultColor mathx.Vec3
	// Metrics, when set, receives rasterizer work counters and
	// scanline-band timings attributed to Service. Clock is the time
	// source for band timings (the session clock — never the wall
	// clock); when nil, band timing is skipped and only work counters
	// are recorded.
	Metrics *telemetry.Registry
	Service string
	Clock   vclock.Clock
}

// DefaultOptions returns a headlight-style setup.
func DefaultOptions() Options {
	return Options{
		Light:        mathx.V3(0.4, 0.7, 1),
		Ambient:      0.25,
		DefaultColor: mathx.V3(0.8, 0.8, 0.78),
	}
}

// Renderer draws geometry into a Framebuffer. It owns no working
// memory: RenderMesh takes its vertex and setup scratch from a package
// pool and returns it before it returns, so a Renderer built per frame
// (as the render service builds one) costs only this struct. It is not
// safe for concurrent render calls (TrianglesDrawn).
type Renderer struct {
	FB   *Framebuffer
	Opts Options

	// TrianglesDrawn counts triangles that survived culling and clipping
	// in the last render call — the quantity device cost models charge.
	TrianglesDrawn int

	// useReference routes mesh rasterization through the per-pixel
	// float reference core instead of the fixed-point scanline core.
	// The two are byte-identical by construction; see reference.go.
	useReference bool
}

// UseReferenceCore selects between the fixed-point scanline core (the
// default) and the per-pixel float reference core. Both produce
// byte-identical framebuffers — the differential parity suite enforces
// it — so the switch exists only for differential testing and for
// benchmarking the fixed-point core against its reference baseline.
func (r *Renderer) UseReferenceCore(on bool) { r.useReference = on }

// New returns a renderer targeting fb with default options.
func New(fb *Framebuffer) *Renderer {
	return &Renderer{FB: fb, Opts: DefaultOptions()}
}

// fullSize returns the logical full-image dimensions.
func (r *Renderer) fullSize() (int, int) {
	w, h := r.Opts.FullW, r.Opts.FullH
	if w == 0 {
		w = r.FB.W
	}
	if h == 0 {
		h = r.FB.H
	}
	return w, h
}

// tileOrigin returns the tile's offset within the full image.
func (r *Renderer) tileOrigin() (int, int) {
	if r.Opts.Tile.Empty() {
		return 0, 0
	}
	return r.Opts.Tile.Min.X, r.Opts.Tile.Min.Y
}

// shadedVert is a vertex after the vertex stage: clip-space position plus
// a lit RGB color.
type shadedVert struct {
	clip  mathx.Vec4
	color mathx.Vec3
}

// screenVert is a vertex ready for rasterization. Positions are
// snapped to the 26.6 subpixel grid: sx, sy are the fixed-point
// coordinates and x, y the exact float equivalents (sx/64, sy/64).
type screenVert struct {
	x, y   float64
	sx, sy int32   // 26.6 fixed-point screen position
	z      float64 // NDC depth, linear in screen space
	invW   float64 // 1/w for perspective-correct attribute interpolation
	color  mathx.Vec3
}

// forkMinVerts is the mesh size below which the vertex and setup stages
// run inline whatever Opts.Workers says. Measured with Workers 2 (spheres,
// EXPERIMENTS.md PR 21): inline is 5 to 20 % faster from 270 to 1,500
// vertices, the two tie near 2,000, forking wins 15 to 40 % from 3,500.
const forkMinVerts = 2048

// fork calls fn(w, lo, hi) for worker w's contiguous share [lo, hi) of n
// items and returns when every call has. With fewer than two workers the
// one call runs on the caller's goroutine; workers left without a share
// (n < workers) are not started.
func fork(workers, n int, fn func(w, lo, hi int)) {
	if workers < 2 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	per := (n + workers - 1) / workers
	for w := 0; w*per < n; w++ {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, w*per, min((w+1)*per, n))
	}
	wg.Wait()
}

// meshScratch is the working memory of one RenderMesh call: the vertex
// stage's per-vertex outputs and each setup worker's triangle list.
type meshScratch struct {
	verts []shadedVert
	proj  []screenVert
	flags []uint8
	// lists[w] holds the triangles worker w set up, in index order.
	// Workers take contiguous index ranges, so walking the lists in
	// worker order visits triangles in exactly the serial order.
	lists [][]triSetup
	// drawn[w] is how many triangles worker w counted as drawn.
	drawn []int
}

// meshPool recycles meshScratch across meshes, frames and Renderers, so
// a steady-state frame allocates no per-vertex or per-triangle memory.
var meshPool = sync.Pool{New: func() any { return new(meshScratch) }}

// size readies the scratch for a mesh of nv vertices set up by the
// given number of workers.
func (ms *meshScratch) size(nv, workers int) {
	if cap(ms.verts) < nv {
		ms.verts = make([]shadedVert, nv)
		ms.proj = make([]screenVert, nv)
		ms.flags = make([]uint8, nv)
	}
	ms.verts, ms.proj, ms.flags = ms.verts[:nv], ms.proj[:nv], ms.flags[:nv]
	for len(ms.lists) < workers {
		ms.lists, ms.drawn = append(ms.lists, nil), append(ms.drawn, 0)
	}
	for w := range ms.lists {
		ms.lists[w], ms.drawn[w] = ms.lists[w][:0], 0
	}
}

// meshPass is what every vertex and triangle of one RenderMesh call
// shares; the stage workers only read it.
type meshPass struct {
	mesh         *geom.Mesh
	mvp, model   mathx.Mat4
	light        mathx.Vec3
	ambient      float64
	defaultColor mathx.Vec3
	// Full image size, the tile's origin in it, and the tile's own size.
	fullW, fullH, ox, oy, fbW, fbH int
}

// RenderMesh draws the mesh under the given model transform and camera.
func (r *Renderer) RenderMesh(m *geom.Mesh, model mathx.Mat4, cam Camera) {
	p := meshPass{
		mesh: m, model: model,
		light:        r.Opts.Light.Normalize(),
		ambient:      mathx.Clamp(r.Opts.Ambient, 0, 1),
		defaultColor: r.Opts.DefaultColor,
		fbW:          r.FB.W, fbH: r.FB.H,
	}
	p.fullW, p.fullH = r.fullSize()
	p.ox, p.oy = r.tileOrigin()
	p.mvp = cam.ViewProjection(float64(p.fullW) / float64(p.fullH)).Mul(model)

	workers := max(r.Opts.Workers, 1)
	if len(m.Positions) < forkMinVerts {
		workers = 1
	}
	ms := meshPool.Get().(*meshScratch)
	ms.size(len(m.Positions), workers)
	fork(workers, len(m.Positions), func(_, lo, hi int) { p.shade(ms, lo, hi) })
	fork(workers, m.TriangleCount(), func(w, lo, hi int) {
		ms.lists[w], ms.drawn[w] = p.setup(ms, ms.lists[w], lo, hi)
	})
	r.TrianglesDrawn = 0
	for _, n := range ms.drawn {
		r.TrianglesDrawn += n
	}
	r.Opts.Metrics.Counter(r.Opts.Service, "raster_triangles_total", "").Add(int64(r.TrianglesDrawn))
	// Fill, a band of rows to a worker: the lists are shared read-only
	// and the bands are disjoint, so the pixel buffers need no locking.
	fork(r.Opts.Workers, r.FB.H, func(_, y0, y1 int) { r.timedBand(ms.lists, y0, y1) })
	meshPool.Put(ms)
}

// shade is the vertex stage over vertices [lo, hi): transform, light,
// and project every vertex once. Each vertex records whether it is
// near-plane inside (bit 0) and projectable (bit 1); vertices with both
// bits set get their screen position up front, so shared-vertex meshes
// project each vertex once instead of once per incident triangle.
func (p *meshPass) shade(ms *meshScratch, lo, hi int) {
	m := p.mesh
	for i := lo; i < hi; i++ {
		clip := p.mvp.MulVec4(mathx.FromPoint(m.Positions[i]))
		base := p.defaultColor
		if m.Colors != nil {
			base = m.Colors[i]
		}
		intensity := 1.0
		if m.Normals != nil {
			n := p.model.TransformDir(m.Normals[i]).Normalize()
			diffuse := math.Max(0, n.Dot(p.light))
			intensity = p.ambient + (1-p.ambient)*diffuse
		}
		ms.verts[i] = shadedVert{clip: clip, color: base.Scale(intensity)}
		f := uint8(0)
		if clip.Z+clip.W > nearEps {
			f = 1
		}
		if clip.W > nearEps {
			f |= 2
			ms.proj[i] = projectVert(&ms.verts[i], p.fullW, p.fullH, p.ox, p.oy)
		}
		ms.flags[i] = f
	}
}

// setup assembles, clips and sets up triangles [lo, hi), appending to
// out, and returns the list with the number of triangles drawn — which
// counts the ones appendSetup found to cover no pixel and gave no slot.
// Triangles whose vertices are all inside and projectable reuse the
// per-vertex projections directly; only triangles straddling the near
// plane take the clipping slow path (which re-projects with the same
// expressions, so the result is bit-identical).
func (p *meshPass) setup(ms *meshScratch, out []triSetup, lo, hi int) ([]triSetup, int) {
	m, drawn := p.mesh, 0
	var poly [4]shadedVert
	var clipped [3]shadedVert
	var sv [3]screenVert
	for i := lo; i < hi; i++ {
		i0, i1, i2 := m.Indices[3*i], m.Indices[3*i+1], m.Indices[3*i+2]
		if ms.flags[i0]&ms.flags[i1]&ms.flags[i2] == 3 {
			v0, v1, v2 := &ms.proj[i0], &ms.proj[i1], &ms.proj[i2]
			if frontFacing(v0, v1, v2) {
				drawn++
				out = appendSetup(out, v0, v1, v2, p.fbW, p.fbH)
			}
			continue
		}
		tri := [3]shadedVert{ms.verts[i0], ms.verts[i1], ms.verts[i2]}
		n := clipNear(&tri, &poly)
		for k := 1; k+1 < n; k++ {
			clipped[0], clipped[1], clipped[2] = poly[0], poly[k], poly[k+1]
			if toScreen(&clipped, &sv, p.fullW, p.fullH, p.ox, p.oy) {
				drawn++
				out = appendSetup(out, &sv[0], &sv[1], &sv[2], p.fbW, p.fbH)
			}
		}
	}
	return out, drawn
}

// RenderPoints draws a point cloud as single-pixel splats.
func (r *Renderer) RenderPoints(pc *geom.PointCloud, model mathx.Mat4, cam Camera) {
	fullW, fullH := r.fullSize()
	aspect := float64(fullW) / float64(fullH)
	mvp := cam.ViewProjection(aspect).Mul(model)
	ox, oy := r.tileOrigin()
	for i, p := range pc.Points {
		clip := mvp.MulVec4(mathx.FromPoint(p))
		if clip.W <= nearEps {
			continue
		}
		ndc := clip.PerspectiveDivide()
		if ndc.Z < -1 || ndc.Z > 1 {
			continue
		}
		x := int((ndc.X*0.5+0.5)*float64(fullW)) - ox
		y := int((0.5-ndc.Y*0.5)*float64(fullH)) - oy
		c := r.Opts.DefaultColor
		if pc.Colors != nil {
			c = pc.Colors[i]
		}
		r.FB.Plot(x, y, float32(ndc.Z), toByte(c.X), toByte(c.Y), toByte(c.Z))
	}
}

// RenderVoxels draws all cells with value > iso as splats whose size
// approximates the projected cell footprint and whose brightness encodes
// the scalar value.
func (r *Renderer) RenderVoxels(g *geom.VoxelGrid, iso float64, model mathx.Mat4, cam Camera) {
	fullW, fullH := r.fullSize()
	aspect := float64(fullW) / float64(fullH)
	mvp := cam.ViewProjection(aspect).Mul(model)
	ox, oy := r.tileOrigin()

	maxVal := float32(math.Inf(-1))
	for _, v := range g.Data {
		if v > maxVal {
			maxVal = v
		}
	}
	span := float64(maxVal) - iso
	if span <= 0 {
		span = 1
	}

	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				v := float64(g.At(i, j, k))
				if v <= iso {
					continue
				}
				p := g.WorldPos(i, j, k)
				clip := mvp.MulVec4(mathx.FromPoint(p))
				if clip.W <= nearEps {
					continue
				}
				ndc := clip.PerspectiveDivide()
				if ndc.Z < -1 || ndc.Z > 1 {
					continue
				}
				x := int((ndc.X*0.5+0.5)*float64(fullW)) - ox
				y := int((0.5-ndc.Y*0.5)*float64(fullH)) - oy
				// Splat size: projected spacing in pixels.
				size := int(g.Spacing / clip.W * float64(fullH))
				if size < 1 {
					size = 1
				}
				if size > 8 {
					size = 8
				}
				bright := mathx.Clamp(0.3+0.7*(v-iso)/span, 0, 1)
				c := r.Opts.DefaultColor.Scale(bright)
				for dy := 0; dy < size; dy++ {
					for dx := 0; dx < size; dx++ {
						r.FB.Plot(x+dx, y+dy, float32(ndc.Z), toByte(c.X), toByte(c.Y), toByte(c.Z))
					}
				}
			}
		}
	}
}

const nearEps = 1e-6

// clipNear clips a triangle against the near plane (clip.Z + clip.W > 0)
// into poly, returning the vertex count: 0 (fully clipped), 3, or 4
// (the caller fans poly[0], poly[k], poly[k+1] into triangles). The
// fixed-size output keeps the per-triangle clip allocation-free.
func clipNear(tri *[3]shadedVert, poly *[4]shadedVert) int {
	n := 0
	for i := 0; i < 3; i++ {
		cur, next := &tri[i], &tri[(i+1)%3]
		curIn := cur.clip.Z+cur.clip.W > nearEps
		nextIn := next.clip.Z+next.clip.W > nearEps
		if curIn {
			poly[n] = *cur
			n++
		}
		if curIn != nextIn {
			// Intersection parameter where z + w = 0 along the edge.
			d0 := cur.clip.Z + cur.clip.W
			d1 := next.clip.Z + next.clip.W
			t := d0 / (d0 - d1)
			poly[n] = shadedVert{
				clip:  cur.clip.Lerp(next.clip, t),
				color: cur.color.Lerp(next.color, t),
			}
			n++
		}
	}
	if n < 3 {
		return 0
	}
	return n
}

// projectVert projects one clip-space vertex into screen space
// (tile-local coordinates) and snaps it to the 26.6 subpixel grid. The
// caller must have checked clip.W > nearEps. Both the once-per-vertex
// fast path and the clip-path toScreen go through this helper, so a
// re-projected clipped vertex is bit-identical to its precomputed one.
func projectVert(v *shadedVert, fullW, fullH, ox, oy int) screenVert {
	ndc := v.clip.PerspectiveDivide()
	sx := snapCoord((ndc.X*0.5+0.5)*float64(fullW) - float64(ox))
	sy := snapCoord((0.5-ndc.Y*0.5)*float64(fullH) - float64(oy))
	return screenVert{
		x:     float64(sx) / subScale,
		y:     float64(sy) / subScale,
		sx:    sx,
		sy:    sy,
		z:     ndc.Z,
		invW:  1 / v.clip.W,
		color: v.color,
	}
}

// frontFacing reports whether the snapped triangle is front-facing.
// Front faces wind counter-clockwise in world space, which with the
// screen's downward y axis gives negative signed area; the integer
// area also drops triangles that collapse to zero area on the subpixel
// grid before rasterization ever sees them.
func frontFacing(v0, v1, v2 *screenVert) bool {
	x0, y0 := int64(v0.sx), int64(v0.sy)
	x1, y1 := int64(v1.sx), int64(v1.sy)
	x2, y2 := int64(v2.sx), int64(v2.sy)
	return (x1-x0)*(y2-y0)-(x2-x0)*(y1-y0) < 0
}

// toScreen projects a clipped triangle into screen space and
// backface-culls it on the snapped integer area.
func toScreen(tri *[3]shadedVert, out *[3]screenVert, fullW, fullH, ox, oy int) bool {
	for i := range tri {
		if tri[i].clip.W <= nearEps {
			return false
		}
		out[i] = projectVert(&tri[i], fullW, fullH, ox, oy)
	}
	return frontFacing(&out[0], &out[1], &out[2])
}

// timedBand rasterizes one band and flushes its work counters to
// telemetry. Band durations are recorded on the session clock when one
// is wired up; with a nil Clock the timing alone is skipped — work
// counters (spans, pixels, early-z rejections) are still recorded.
func (r *Renderer) timedBand(lists [][]triSetup, y0, y1 int) {
	timed := r.Opts.Metrics != nil && r.Opts.Clock != nil
	var start time.Time
	if timed {
		start = r.Opts.Clock.Now()
	}
	sc := scratchPool.Get().(*bandScratch)
	sc.init(r.TrianglesDrawn)
	for _, setups := range lists {
		if r.useReference {
			r.referenceBand(setups, y0, y1, sc)
		} else {
			r.bandRaster(setups, y0, y1, sc)
		}
	}
	m := r.Opts.Metrics
	m.Counter(r.Opts.Service, "raster_spans_total", "").Add(sc.spans)
	m.Counter(r.Opts.Service, "raster_pixels_total", "").Add(sc.pixels)
	m.Counter(r.Opts.Service, "raster_earlyz_spans_total", "").Add(sc.earlySpans)
	m.Counter(r.Opts.Service, "raster_earlyz_tris_total", "").Add(sc.earlyTris)
	scratchPool.Put(sc)
	if timed {
		m.Histogram(r.Opts.Service, "raster_band_ns", "").Observe(r.Opts.Clock.Now().Sub(start))
	}
}

func toByte(v float64) uint8 {
	b := mathx.Clamp(v, 0, 1)*255 + 0.5
	if b > 255 {
		b = 255
	}
	return uint8(b)
}
