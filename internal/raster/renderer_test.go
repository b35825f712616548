package raster

import (
	"image"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
)

// transformMesh applies m4 to a fixture mesh in place: positions as
// points, normals as directions, renormalized.
func transformMesh(m *geom.Mesh, m4 mathx.Mat4) {
	for i, p := range m.Positions {
		m.Positions[i] = m4.TransformPoint(p)
	}
	for i, n := range m.Normals {
		m.Normals[i] = m4.TransformDir(n).Normalize()
	}
}

// frontTriangle returns a CCW triangle at the origin facing +Z.
func frontTriangle() *geom.Mesh {
	m := &geom.Mesh{
		Positions: []mathx.Vec3{
			mathx.V3(-1, -1, 0), mathx.V3(1, -1, 0), mathx.V3(0, 1, 0),
		},
		Indices: []uint32{0, 1, 2},
	}
	m.ComputeNormals()
	return m
}

func lookingCamera() Camera {
	c := DefaultCamera()
	c.Eye = mathx.V3(0, 0, 5)
	return c
}

func renderCount(fb *Framebuffer) int { return fb.CoveredPixels() }

func TestRenderFrontTriangle(t *testing.T) {
	fb := NewFramebuffer(64, 64)
	r := New(fb)
	r.RenderMesh(frontTriangle(), mathx.Identity(), lookingCamera())
	if r.TrianglesDrawn != 1 {
		t.Errorf("TrianglesDrawn = %d", r.TrianglesDrawn)
	}
	if got := renderCount(fb); got < 100 {
		t.Errorf("triangle covered only %d pixels", got)
	}
	// Center pixel is lit.
	cr, _, _ := fb.At(32, 32)
	if cr == 0 {
		t.Error("center pixel not drawn")
	}
}

func TestBackfaceCulled(t *testing.T) {
	m := frontTriangle()
	// Reverse winding so the triangle faces away.
	m.Indices = []uint32{0, 2, 1}
	fb := NewFramebuffer(64, 64)
	r := New(fb)
	r.RenderMesh(m, mathx.Identity(), lookingCamera())
	if got := renderCount(fb); got != 0 {
		t.Errorf("backface drew %d pixels", got)
	}
	if r.TrianglesDrawn != 0 {
		t.Errorf("TrianglesDrawn = %d", r.TrianglesDrawn)
	}
}

func TestDepthOrdering(t *testing.T) {
	near := frontTriangle()
	near.SetUniformColor(mathx.V3(1, 0, 0))
	far := frontTriangle()
	far.SetUniformColor(mathx.V3(0, 1, 0))
	transformMesh(far, mathx.Translate(mathx.V3(0, 0, -2)))

	// Render far first then near: near must win.
	fb := NewFramebuffer(64, 64)
	r := New(fb)
	r.Opts.Ambient = 1 // flat shading for exact colors
	r.RenderMesh(far, mathx.Identity(), lookingCamera())
	r.RenderMesh(near, mathx.Identity(), lookingCamera())
	cr, cg, _ := fb.At(32, 40)
	if cr < 200 || cg > 50 {
		t.Errorf("near triangle lost depth test: r=%d g=%d", cr, cg)
	}

	// Render near first then far: near must still win.
	fb2 := NewFramebuffer(64, 64)
	r2 := New(fb2)
	r2.Opts.Ambient = 1
	r2.RenderMesh(near, mathx.Identity(), lookingCamera())
	r2.RenderMesh(far, mathx.Identity(), lookingCamera())
	cr, cg, _ = fb2.At(32, 40)
	if cr < 200 || cg > 50 {
		t.Errorf("depth test failed with reversed draw order: r=%d g=%d", cr, cg)
	}
}

func TestNearPlaneClipping(t *testing.T) {
	// A triangle straddling the camera plane: one vertex behind the eye.
	m := &geom.Mesh{
		Positions: []mathx.Vec3{
			mathx.V3(-1, -1, 0), mathx.V3(1, -1, 0), mathx.V3(0, 1, 8),
		},
		Indices: []uint32{0, 1, 2},
	}
	m.ComputeNormals()
	fb := NewFramebuffer(64, 64)
	r := New(fb)
	cam := lookingCamera() // eye at z=5: vertex at z=20 is behind it
	r.RenderMesh(m, mathx.Identity(), cam)
	// Must not crash or wrap; the clipped part still renders some pixels.
	if got := renderCount(fb); got == 0 {
		t.Error("straddling triangle fully dropped")
	}
	// All depths are valid (in [-1, 1]).
	for _, d := range fb.Depth {
		if !math.IsInf(float64(d), 1) && (d < -1 || d > 1) {
			t.Fatalf("invalid depth %v", d)
		}
	}
}

func TestTriangleFullyBehindCameraDropped(t *testing.T) {
	m := frontTriangle()
	transformMesh(m, mathx.Translate(mathx.V3(0, 0, 50))) // behind eye at z=5
	fb := NewFramebuffer(32, 32)
	r := New(fb)
	r.RenderMesh(m, mathx.Identity(), lookingCamera())
	if got := renderCount(fb); got != 0 {
		t.Errorf("behind-camera triangle drew %d pixels", got)
	}
}

func TestSphereRendersAsDisc(t *testing.T) {
	sphere := genmodel.Sphere(mathx.Vec3{}, 1, 48, 24)
	sphere.ComputeNormals()
	fb := NewFramebuffer(100, 100)
	r := New(fb)
	cam := DefaultCamera().FitToBounds(sphere.Bounds(), mathx.V3(0, 0, 1))
	r.RenderMesh(sphere, mathx.Identity(), cam)
	covered := renderCount(fb)
	// The disc should cover roughly pi/4 of the fitted viewport; accept a
	// broad range.
	if covered < 2000 || covered > 9000 {
		t.Errorf("sphere covered %d pixels", covered)
	}
	// Gouraud shading: the lit side (upper right, light from +x+y+z) must
	// be brighter than the opposite limb.
	litR, _, _ := fb.At(60, 38)
	darkR, _, _ := fb.At(32, 70)
	if litR <= darkR {
		t.Errorf("shading gradient missing: lit=%d dark=%d", litR, darkR)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	model := genmodel.Elle(8000)
	cam := DefaultCamera().FitToBounds(model.Bounds(), mathx.V3(0.3, 0.2, 1))

	seq := NewFramebuffer(128, 128)
	rs := New(seq)
	rs.RenderMesh(model, mathx.Identity(), cam)

	par := NewFramebuffer(128, 128)
	rp := New(par)
	rp.Opts.Workers = 8
	rp.RenderMesh(model, mathx.Identity(), cam)

	for i := range seq.Color {
		if seq.Color[i] != par.Color[i] {
			t.Fatalf("pixel byte %d differs: seq=%d par=%d", i, seq.Color[i], par.Color[i])
		}
	}
}

func TestTileRenderingMatchesFull(t *testing.T) {
	model := genmodel.Galleon(4000)
	cam := DefaultCamera().FitToBounds(model.Bounds(), mathx.V3(0.4, 0.3, 1))
	const W, H = 120, 80

	full := NewFramebuffer(W, H)
	New(full).RenderMesh(model, mathx.Identity(), cam)

	// Render as 2x2 tiles and reassemble.
	assembled := NewFramebuffer(W, H)
	for ty := 0; ty < 2; ty++ {
		for tx := 0; tx < 2; tx++ {
			rect := image.Rect(tx*W/2, ty*H/2, (tx+1)*W/2, (ty+1)*H/2)
			tileFB := NewFramebuffer(rect.Dx(), rect.Dy())
			tr := New(tileFB)
			tr.Opts.Tile = rect
			tr.Opts.FullW, tr.Opts.FullH = W, H
			tr.RenderMesh(model, mathx.Identity(), cam)
			if err := assembled.BlitTile(tileFB, rect.Min.X, rect.Min.Y); err != nil {
				t.Fatal(err)
			}
		}
	}
	diff := 0
	for i := range full.Color {
		if full.Color[i] != assembled.Color[i] {
			diff++
		}
	}
	if diff != 0 {
		t.Errorf("%d of %d bytes differ between tiled and full render", diff, len(full.Color))
	}
}

func TestRenderPoints(t *testing.T) {
	pc := &geom.PointCloud{
		Points: []mathx.Vec3{mathx.V3(0, 0, 0), mathx.V3(100, 0, 0)}, // second off-screen
		Colors: []mathx.Vec3{mathx.V3(1, 0, 0), mathx.V3(0, 1, 0)},
	}
	fb := NewFramebuffer(64, 64)
	r := New(fb)
	r.RenderPoints(pc, mathx.Identity(), lookingCamera())
	if got := renderCount(fb); got != 1 {
		t.Errorf("points covered %d pixels, want 1", got)
	}
	cr, _, _ := fb.At(32, 32)
	if cr < 200 {
		t.Errorf("point color: %d", cr)
	}
}

func TestRenderVoxels(t *testing.T) {
	g := geom.NewVoxelGrid(8, 8, 8, mathx.V3(-1, -1, -1), 2.0/7)
	g.Fill(geom.SphereField(mathx.Vec3{}, 0.8))
	fb := NewFramebuffer(64, 64)
	r := New(fb)
	r.RenderVoxels(g, 0, mathx.Identity(), lookingCamera())
	if got := renderCount(fb); got < 20 {
		t.Errorf("voxels covered %d pixels", got)
	}
}

func TestCameraOrbitKeepsDistance(t *testing.T) {
	c := DefaultCamera()
	d0 := c.Eye.Sub(c.Target).Len()
	o := c.Orbit(0.5, 0.3)
	d1 := o.Eye.Sub(o.Target).Len()
	if math.Abs(d0-d1) > 1e-9 {
		t.Errorf("orbit changed distance: %v -> %v", d0, d1)
	}
	// Extreme pitch is rejected rather than flipping.
	p := c
	for i := 0; i < 20; i++ {
		p = p.Orbit(0, 0.3)
	}
	up := p.Eye.Sub(p.Target).Normalize().Dot(p.Up)
	if math.Abs(up) > 0.995 {
		t.Errorf("orbit passed the pole: %v", up)
	}
}

func TestCameraDolly(t *testing.T) {
	c := DefaultCamera()
	in := c.Dolly(0.5)
	if got := in.Eye.Sub(in.Target).Len(); math.Abs(got-5) > 1e-9 {
		t.Errorf("dolly in: %v", got)
	}
	if got := c.Dolly(-1); got != c {
		t.Error("non-positive dolly should be a no-op")
	}
}

func TestCameraFitToBounds(t *testing.T) {
	m := genmodel.Sphere(mathx.V3(5, 5, 5), 2, 16, 8)
	cam := DefaultCamera().FitToBounds(m.Bounds(), mathx.V3(0, 0, 1))
	if cam.Target.Sub(mathx.V3(5, 5, 5)).Len() > 0.01 {
		t.Errorf("fit target: %v", cam.Target)
	}
	fb := NewFramebuffer(64, 64)
	r := New(fb)
	m.ComputeNormals()
	r.RenderMesh(m, mathx.Identity(), cam)
	// Object visible and neither a sliver nor overflowing.
	frac := float64(renderCount(fb)) / (64 * 64)
	if frac < 0.1 || frac > 0.95 {
		t.Errorf("fit coverage fraction: %v", frac)
	}
	// Fitting an empty box is a no-op.
	if got := cam.FitToBounds(mathx.EmptyAABB(), mathx.V3(0, 0, 1)); got != cam {
		t.Error("empty fit changed camera")
	}
}
