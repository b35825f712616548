package raster

import (
	"image"
	"math"
	"sync"

	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/telemetry"
)

// Options controls a render pass.
type Options struct {
	// Light is the direction towards the light source, in world space.
	Light mathx.Vec3
	// Ambient is the ambient light fraction in [0, 1].
	Ambient float64
	// Workers is the number of goroutines a batch's vertex, setup and
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
	// Metrics, when set, receives rasterizer work counters attributed
	// to Service.
	Metrics *telemetry.Registry
	Service string
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
// memory: a mesh batch draws on Scratch, or on scratch taken from a
// package pool and returned before the call returns, so a Renderer built
// per frame (as the render service builds one) costs only this struct.
// It is not safe for concurrent render calls (TrianglesDrawn).
type Renderer struct {
	FB   *Framebuffer
	Opts Options

	// Scratch, when set, is the working memory RenderMeshes and
	// RenderMesh draw with, kept by its owner from one call to the next;
	// nil draws on pooled scratch.
	Scratch *Scratch

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

// screenVert is the one record the vertex stage writes per vertex and
// every later stage reads in place: the lit colour, and — for a vertex
// in front of the near plane — its position snapped to the 26.6 subpixel
// grid (tile-local), NDC depth and 1/w. A triangle's setup refers to its
// three records by index instead of copying them. Nothing else is kept
// per vertex: the near-plane clip path recomputes the clip positions of
// the few triangles that need one (clipPos, the expression shade uses).
type screenVert struct {
	sx, sy int32      // 26.6 fixed-point screen position
	z      float64    // NDC depth, linear in screen space
	invW   float64    // 1/w for perspective-correct attribute interpolation
	color  mathx.Vec3 // lit RGB
}

// clipVert is a vertex on the near-plane clip path: clip-space position
// plus the lit colour, both interpolated where an edge crosses the plane.
type clipVert struct {
	clip  mathx.Vec4
	color mathx.Vec3
}

// forkMinVerts is the batch size, in vertices over all its meshes, below
// which the vertex and setup stages run inline whatever Opts.Workers
// says. Measured with Workers 2 on two hyperthread siblings for one
// mesh a batch (spheres, EXPERIMENTS.md PR 24): inline is 5 to 15 %
// faster up to 1,000 vertices, the two tie from 1,400 to 10,000, forking
// wins 10 % at 16,000.
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

// setupList is what one setup worker produced: its triangles in index
// order, the vertices near-plane clipping made for them, and how many
// triangles it counted as drawn. A triSetup's vertex index below the
// mesh's vertex count names a vertex-stage record; index nv+k names
// clip[k] of the list the triangle is in, so clip may grow (and move)
// while the list is being built.
type setupList struct {
	tris  []triSetup
	clip  []screenVert
	drawn int
}

// meshScratch is one mesh's share of a batch's working memory: the
// vertex stage's record per vertex and each setup worker's list.
type meshScratch struct {
	verts []screenVert
	// ready[i] is 1 when vertex i is in front of the near plane and
	// projectable, so verts[i] holds its screen position; else 0.
	ready []uint8
	// Workers take contiguous index ranges, so walking the lists in
	// worker order visits triangles in exactly the serial order.
	lists []setupList
}

// Scratch is the working memory of a mesh batch: every mesh's vertex
// records and setup lists, all held until the batch's bands are filled.
// Mesh k of a batch reuses what mesh k of the last batch grew, so an
// owner that draws the same scene frame after frame (the render service
// keeps one per replica) stops allocating after the first frames. It
// serves one render call at a time.
type Scratch struct {
	passes []meshPass
	meshes []meshScratch
}

// meshPool recycles Scratch for renderers that bring none, across
// meshes, frames and Renderers, so a steady-state frame allocates no
// per-vertex or per-triangle memory.
var meshPool = sync.Pool{New: func() any { return new(Scratch) }}

// split calls fn(k, a, b) for each mesh k of the batch holding part of
// [lo, hi) of the concatenation of every mesh's n-item sequence, with
// [a, b) that part in mesh k's own numbering.
func (s *Scratch) split(lo, hi int, n func(*geom.Mesh) int, fn func(k, a, b int)) {
	base := 0
	for k := range s.passes {
		nk := n(s.passes[k].mesh)
		if a, b := max(lo-base, 0), min(hi-base, nk); a < b {
			fn(k, a, b)
		}
		base += nk
	}
}

// size readies the scratch for a mesh of nv vertices set up by the
// given number of workers.
func (ms *meshScratch) size(nv, workers int) {
	if cap(ms.verts) < nv {
		ms.verts = make([]screenVert, nv)
		ms.ready = make([]uint8, nv)
	}
	ms.verts, ms.ready = ms.verts[:nv], ms.ready[:nv]
	for len(ms.lists) < workers {
		ms.lists = append(ms.lists, setupList{})
	}
	for w := range ms.lists {
		l := &ms.lists[w]
		l.tris, l.clip, l.drawn = l.tris[:0], l.clip[:0], 0
	}
}

// vert resolves a triSetup vertex index of list l (see setupList).
func (ms *meshScratch) vert(l *setupList, i int32) *screenVert {
	if int(i) < len(ms.verts) {
		return &ms.verts[i]
	}
	return &l.clip[int(i)-len(ms.verts)]
}

// meshPass is what every vertex and triangle of one mesh of a batch
// shares; the stage workers only read it.
type meshPass struct {
	mesh         *geom.Mesh
	mvp, model   mathx.Mat4
	light        mathx.Vec3
	ambient      float64
	defaultColor mathx.Vec3
	// lit is the colours of the draw's Lighting record, nil without one.
	// When reuse is set the vertex stage copies each colour from there;
	// else it lights the vertex and, with a record, writes the colour back.
	lit   []mathx.Vec3
	reuse bool
	// Full image size and the tile's origin in it, as the floats the
	// projection multiplies by, and the tile's own size.
	fullW, fullH, ox, oy float64
	fbW, fbH             int
}

// MeshDraw is one mesh of a RenderMeshes batch under its model
// transform, lit from Lit when it is set.
type MeshDraw struct {
	Mesh  *geom.Mesh
	Model mathx.Mat4
	Lit   *Lighting
}

// Lighting is one mesh's lit colour per vertex, kept by the caller from
// one draw to the next. Under the fixed world light a vertex's colour
// reads the mesh, the model matrix, Opts.Light (normalized), Opts.Ambient
// (clamped) and Opts.DefaultColor, and never the camera; the record keeps
// those as its key. A draw whose key compares equal, value by value,
// copies the colours; any other draw lights every vertex with the same
// expressions in the same vertex stage and writes key and colours back. Equal inputs
// light alike, so a copied colour is the one lighting would compute (a
// NaN in the key never compares equal, so it relights every draw; -0 and
// +0 compare equal and can change a colour only in the sign of a zero,
// which no later stage tells apart). The whole model matrix is in the
// key: lighting multiplies its translation column by 0, which is NaN for
// a translation that is not finite. The owner must not change a mesh in
// place while a record keyed on it is kept. A record serves one draw of
// one render call at a time; a second draw of a batch naming it is lit
// without it. The zero value is an empty record.
type Lighting struct {
	mesh         *geom.Mesh
	model        mathx.Mat4
	light        mathx.Vec3
	ambient      float64
	defaultColor mathx.Vec3
	colors       []mathx.Vec3
	busy         bool
}

// claim gives p the record's colours and reports whether they are p's:
// the key equals p's. When it does not, it is set to p's.
func (l *Lighting) claim(p *meshPass) bool {
	nv := len(p.mesh.Positions)
	hit := l.mesh == p.mesh && l.model == p.model && l.light == p.light &&
		l.ambient == p.ambient && l.defaultColor == p.defaultColor && len(l.colors) == nv
	if !hit {
		l.mesh, l.model, l.light, l.ambient, l.defaultColor = p.mesh, p.model, p.light, p.ambient, p.defaultColor
		if cap(l.colors) < nv {
			l.colors = make([]mathx.Vec3, nv)
		}
		l.colors = l.colors[:nv]
	}
	l.busy = true
	p.lit = l.colors
	return hit
}

// RenderMesh draws the mesh under the given model transform and camera:
// a batch of one.
func (r *Renderer) RenderMesh(m *geom.Mesh, model mathx.Mat4, cam Camera) {
	r.RenderMeshes([]MeshDraw{{Mesh: m, Model: model}}, cam)
}

// RenderMeshes draws the batch's meshes in order under cam with one fork
// per stage for the whole batch: worker w shades its contiguous share of
// the batch's concatenated vertices and sets up its share of the
// concatenated triangles, into a list of its own per mesh; then each band
// fills from every mesh's lists, meshes in batch order and a mesh's lists
// in worker order — the serial order, so every depth tie, and the image,
// is what RenderMesh on each mesh in turn draws, at any Workers.
// TrianglesDrawn is the batch's total.
func (r *Renderer) RenderMeshes(batch []MeshDraw, cam Camera) {
	s := r.Scratch
	if s == nil {
		s = meshPool.Get().(*Scratch)
		defer meshPool.Put(s)
	}
	fullW, fullH := r.fullSize()
	ox, oy := r.tileOrigin()
	frame := meshPass{
		light:        r.Opts.Light.Normalize(),
		ambient:      mathx.Clamp(r.Opts.Ambient, 0, 1),
		defaultColor: r.Opts.DefaultColor,
		fullW:        float64(fullW), fullH: float64(fullH), ox: float64(ox), oy: float64(oy),
		fbW: r.FB.W, fbH: r.FB.H,
	}
	vp := cam.ViewProjection(float64(fullW) / float64(fullH))
	nv, nt := 0, 0
	for _, d := range batch {
		nv += len(d.Mesh.Positions)
		nt += d.Mesh.TriangleCount()
	}
	workers := max(r.Opts.Workers, 1)
	if nv < forkMinVerts {
		workers = 1
	}
	for len(s.meshes) < len(batch) {
		s.meshes = append(s.meshes, meshScratch{})
	}
	s.passes = s.passes[:0]
	for k, d := range batch {
		p := frame
		p.mesh, p.model, p.mvp = d.Mesh, d.Model, vp.Mul(d.Model)
		if d.Lit != nil && !d.Lit.busy {
			p.reuse = d.Lit.claim(&p)
		}
		s.passes = append(s.passes, p)
		s.meshes[k].size(len(d.Mesh.Positions), workers)
	}
	meshes := s.meshes[:len(batch)]
	fork(workers, nv, func(_, lo, hi int) {
		s.split(lo, hi, (*geom.Mesh).VertexCount, func(k, a, b int) { s.passes[k].shade(&meshes[k], a, b) })
	})
	fork(workers, nt, func(w, lo, hi int) {
		s.split(lo, hi, (*geom.Mesh).TriangleCount, func(k, a, b int) { s.passes[k].setup(&meshes[k], &meshes[k].lists[w], a, b) })
	})
	r.TrianglesDrawn = 0
	for k := range meshes {
		for w := range meshes[k].lists {
			r.TrianglesDrawn += meshes[k].lists[w].drawn
		}
	}
	r.Opts.Metrics.Counter(r.Opts.Service, "raster_triangles_total", "").Add(int64(r.TrianglesDrawn))
	// Fill, a band of rows to a worker: the lists are shared read-only
	// and the bands are disjoint, so the pixel buffers need no locking.
	fork(r.Opts.Workers, r.FB.H, func(_, y0, y1 int) { r.band(meshes, y0, y1) })
	clear(s.passes) // the scratch outlives the call; the meshes are not its to keep
	for _, d := range batch {
		if d.Lit != nil {
			d.Lit.busy = false
		}
	}
}

// clipPos is vertex i's clip-space position. shade and the clip path
// both call it, so a clip position recomputed for a straddling triangle
// is the one the vertex stage saw.
func (p *meshPass) clipPos(i uint32) mathx.Vec4 {
	return p.mvp.MulVec4(mathx.FromPoint(p.mesh.Positions[i]))
}

// shade is the vertex stage over vertices [lo, hi): light every vertex,
// or copy its colour from a Lighting record whose key matched, and, when
// it is in front of the near plane, project it — each record written
// once, in place, so a mesh with shared vertices projects each once
// instead of once per incident triangle.
func (p *meshPass) shade(ms *meshScratch, lo, hi int) {
	m := p.mesh
	for i := lo; i < hi; i++ {
		v := &ms.verts[i]
		if p.reuse {
			v.color = p.lit[i]
		} else {
			base := &p.defaultColor
			if m.Colors != nil {
				base = &m.Colors[i]
			}
			intensity := 1.0
			if m.Normals != nil {
				n := p.model.TransformDir(m.Normals[i]).Normalize()
				diffuse := max(0, n.Dot(p.light))
				intensity = p.ambient + (1-p.ambient)*diffuse
			}
			v.color = base.Scale(intensity)
			if p.lit != nil {
				p.lit[i] = v.color
			}
		}
		clip := p.clipPos(uint32(i))
		ms.ready[i] = 0
		if clip.Z+clip.W > nearEps && clip.W > nearEps {
			ms.ready[i] = 1
			p.project(v, clip)
		}
	}
}

// setup assembles, clips and sets up triangles [lo, hi) into l. The
// drawn count includes the triangles appendSetup found to cover no pixel
// and gave no slot. Triangles whose vertices are all ready use the
// vertex stage's records directly; only triangles straddling the near
// plane take the clipping slow path, which projects what it makes into
// l.clip with the same expressions, so the result is bit-identical.
func (p *meshPass) setup(ms *meshScratch, l *setupList, lo, hi int) {
	m, nv := p.mesh, int32(len(ms.verts))
	var tri [3]clipVert
	var poly [4]clipVert
	for i := lo; i < hi; i++ {
		i0, i1, i2 := m.Indices[3*i], m.Indices[3*i+1], m.Indices[3*i+2]
		if ms.ready[i0]&ms.ready[i1]&ms.ready[i2] != 0 {
			v0, v1, v2 := &ms.verts[i0], &ms.verts[i1], &ms.verts[i2]
			if frontFacing(v0, v1, v2) {
				l.drawn++
				l.tris = appendSetup(l.tris, v0, v1, v2, int32(i0), int32(i1), int32(i2), p.fbW, p.fbH)
			}
			continue
		}
		for k, idx := range [3]uint32{i0, i1, i2} {
			tri[k] = clipVert{clip: p.clipPos(idx), color: ms.verts[idx].color}
		}
		n := clipNear(&tri, &poly)
		for k := 1; k+1 < n; k++ {
			// Three new records at the end of l.clip, kept only if the
			// triangle is drawn.
			at := len(l.clip)
			l.clip = append(l.clip, screenVert{}, screenVert{}, screenVert{})
			sv := l.clip[at : at+3]
			if p.toScreen([3]*clipVert{&poly[0], &poly[k], &poly[k+1]}, sv) {
				l.drawn++
				c := nv + int32(at)
				l.tris = appendSetup(l.tris, &sv[0], &sv[1], &sv[2], c, c+1, c+2, p.fbW, p.fbH)
			} else {
				l.clip = l.clip[:at]
			}
		}
	}
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
				if size > maxSplat {
					size = maxSplat
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
func clipNear(tri *[3]clipVert, poly *[4]clipVert) int {
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
			poly[n] = clipVert{
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

// project fills v's screen position (tile-local, snapped to the 26.6
// subpixel grid), depth and 1/w from its clip-space position; the
// colour is the caller's. The caller must have checked clip.W > nearEps.
// Both the once-per-vertex fast path and the clip path's toScreen go
// through this helper, so a re-projected clipped vertex is bit-identical
// to its precomputed one.
func (p *meshPass) project(v *screenVert, clip mathx.Vec4) {
	ndc := clip.PerspectiveDivide()
	v.sx = snapCoord((ndc.X*0.5+0.5)*p.fullW - p.ox)
	v.sy = snapCoord((0.5-ndc.Y*0.5)*p.fullH - p.oy)
	v.z = ndc.Z
	v.invW = 1 / clip.W
}

// maxSplat is the largest side, in pixels, of a voxel splat.
const maxSplat = 8

// Frustum returns the view frustum of the pixels this renderer draws
// into under cam: the tile (the full image when Opts.Tile is empty)
// padded by one pixel on every side, with cam's near and far planes. A
// mesh or point cloud whose bounds it rejects writes no pixel of the
// tile: coverage is decided at pixel centres, which sit at least half a
// pixel inside the tile's edges, and snapping moves a vertex by at most
// 1/128 px. For the full image it is the frustum of cam alone, widened
// by the pixel of margin.
func (r *Renderer) Frustum(cam Camera) mathx.Frustum {
	return r.frustum(cam, 1)
}

// SplatFrustum is Frustum for RenderVoxels, whose splats reach up to
// maxSplat-1 pixels right of and below their cell's pixel: the window
// grows by that much up and to the left.
func (r *Renderer) SplatFrustum(cam Camera) mathx.Frustum {
	return r.frustum(cam, maxSplat)
}

// frustum is the frustum of the tile padded by one pixel right and
// below and by lead pixels left and above. It inverts project's
// convention: a matrix taking the padded window's NDC rectangle onto
// [-1, 1] is applied after cam's view-projection, leaving z and w — so
// the near and far planes — as they are.
func (r *Renderer) frustum(cam Camera, lead int) mathx.Frustum {
	fullW, fullH := r.fullSize()
	win := r.Opts.Tile
	if win.Empty() {
		win = image.Rect(0, 0, fullW, fullH)
	}
	fw, fh := float64(fullW), float64(fullH)
	// NDC of the window's edges: x grows right, y grows up.
	left, right := 2*float64(win.Min.X-lead)/fw-1, 2*float64(win.Max.X+1)/fw-1
	bottom, top := 1-2*float64(win.Max.Y+1)/fh, 1-2*float64(win.Min.Y-lead)/fh
	window := mathx.Mat4{
		2 / (right - left), 0, 0, -(right + left) / (right - left),
		0, 2 / (top - bottom), 0, -(top + bottom) / (top - bottom),
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
	return mathx.FrustumFromMatrix(window.Mul(cam.ViewProjection(fw / fh)))
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

// toScreen projects a clipped triangle into the three records of out
// and backface-culls it on the snapped integer area.
func (p *meshPass) toScreen(tri [3]*clipVert, out []screenVert) bool {
	for i, cv := range tri {
		if cv.clip.W <= nearEps {
			return false
		}
		out[i].color = cv.color
		p.project(&out[i], cv.clip)
	}
	return frontFacing(&out[0], &out[1], &out[2])
}

// band rasterizes one band of a batch's meshes and flushes its work
// counters (spans, pixels, early-z rejections) to telemetry.
func (r *Renderer) band(meshes []meshScratch, y0, y1 int) {
	sc := scratchPool.Get().(*bandScratch)
	sc.init(r.TrianglesDrawn)
	for k := range meshes {
		ms := &meshes[k]
		for w := range ms.lists {
			if r.useReference {
				r.referenceBand(ms, &ms.lists[w], y0, y1, sc)
			} else {
				r.bandRaster(ms, &ms.lists[w], y0, y1, sc)
			}
		}
	}
	m := r.Opts.Metrics
	m.Counter(r.Opts.Service, "raster_spans_total", "").Add(sc.spans)
	m.Counter(r.Opts.Service, "raster_pixels_total", "").Add(sc.pixels)
	m.Counter(r.Opts.Service, "raster_earlyz_spans_total", "").Add(sc.earlySpans)
	m.Counter(r.Opts.Service, "raster_earlyz_tris_total", "").Add(sc.earlyTris)
	scratchPool.Put(sc)
}

func toByte(v float64) uint8 {
	b := mathx.Clamp(v, 0, 1)*255 + 0.5
	if b > 255 {
		b = 255
	}
	return uint8(b)
}
