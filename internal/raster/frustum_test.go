package raster

import (
	"image"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// tileRenderer is a renderer drawing rect of a fullW x fullH image.
func tileRenderer(rect image.Rectangle, fullW, fullH int) *Renderer {
	r := New(NewFramebuffer(fullW, fullH))
	if !rect.Empty() {
		r = New(NewFramebuffer(rect.Dx(), rect.Dy()))
	}
	r.Opts.Tile = rect
	r.Opts.FullW, r.Opts.FullH = fullW, fullH
	return r
}

// Frustum is the tile's window padded by exactly one pixel: every pixel
// centre of the rectangle is inside it at any depth, a point more than a
// pixel beyond any edge is culled and one less than a pixel beyond is
// not, and for the full image it is the camera's own frustum widened by
// that pixel, with the camera's near and far planes bit for bit.
func TestRendererFrustum(t *testing.T) {
	cam := DefaultCamera().Orbit(0.4, 0.2)
	for _, c := range []struct {
		name         string
		fullW, fullH int
		tile         image.Rectangle
	}{
		{"full image", 64, 48, image.Rectangle{}},
		{"top band", 640, 480, image.Rect(0, 0, 640, 240)},
		{"bottom band", 640, 480, image.Rect(0, 240, 640, 480)},
		{"column", 160, 120, image.Rect(37, 0, 80, 120)},
		{"one row", 160, 120, image.Rect(0, 59, 160, 60)},
		{"odd", 151, 97, image.Rect(13, 7, 110, 38)},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := tileRenderer(c.tile, c.fullW, c.fullH).Frustum(cam)
			rect := c.tile
			if rect.Empty() {
				rect = image.Rect(0, 0, c.fullW, c.fullH)
			}
			aspect := float64(c.fullW) / float64(c.fullH)
			vp := cam.ViewProjection(aspect)
			// at is the world point under full-image position (x, y) at
			// the given depth along the view axis, from the camera's own
			// geometry rather than from its matrices.
			fwd := cam.Target.Sub(cam.Eye).Normalize()
			right := fwd.Cross(cam.Up).Normalize()
			up := right.Cross(fwd)
			tan := math.Tan(cam.FovY / 2)
			at := func(x, y, depth float64) mathx.AABB {
				nx, ny := 2*x/float64(c.fullW)-1, 1-2*y/float64(c.fullH)
				p := cam.Eye.Add(fwd.Add(right.Scale(nx * tan * aspect)).Add(up.Scale(ny * tan)).Scale(depth))
				return mathx.AABB{Min: p, Max: p}
			}
			for _, depth := range []float64{cam.Near * 1.01, 1, cam.Far * 0.99} {
				for y := rect.Min.Y; y < rect.Max.Y; y++ {
					for x := rect.Min.X; x < rect.Max.X; x++ {
						if !f.IntersectsAABB(at(float64(x)+0.5, float64(y)+0.5, depth)) {
							t.Fatalf("pixel centre (%d,%d) at depth %v outside the frustum", x, y, depth)
						}
					}
				}
				midX, midY := float64(rect.Min.X+rect.Max.X)/2, float64(rect.Min.Y+rect.Max.Y)/2
				for _, d := range []float64{0.95, 1.05} {
					for _, p := range []struct {
						edge string
						box  mathx.AABB
					}{
						{"left", at(float64(rect.Min.X)-d, midY, depth)},
						{"right", at(float64(rect.Max.X)+d, midY, depth)},
						{"top", at(midX, float64(rect.Min.Y)-d, depth)},
						{"bottom", at(midX, float64(rect.Max.Y)+d, depth)},
					} {
						if culled := !f.IntersectsAABB(p.box); culled != (d > 1) {
							t.Errorf("box %v px beyond the %s edge at depth %v: culled %v", d, p.edge, depth, culled)
						}
					}
				}
			}
			if !c.tile.Empty() {
				return
			}
			if whole := tileRenderer(rect, c.fullW, c.fullH).Frustum(cam); whole != f {
				t.Errorf("the full image as a tile gives %v, as no tile %v", whole, f)
			}
			today := mathx.FrustumFromMatrix(vp)
			padded := mathx.FrustumFromMatrix(mathx.Scale(mathx.V3(
				float64(c.fullW)/float64(c.fullW+2), float64(c.fullH)/float64(c.fullH+2), 1)).Mul(vp))
			for i := range f {
				if i >= 4 && f[i] != today[i] {
					t.Errorf("plane %d is %v, the camera's is %v", i, f[i], today[i])
				}
				n, want := f[i].Normal, padded[i].Normal
				if n.Sub(want).Len() > 1e-12*want.Len() || math.Abs(f[i].D-padded[i].D) > 1e-12*math.Abs(padded[i].D)+1e-12 {
					t.Errorf("plane %d is %v, the camera's widened by a pixel %v", i, f[i], padded[i])
				}
			}
		})
	}
}

// boxMesh is the surface of the box b, each face wound both ways so it
// covers the box's whole silhouette from anywhere outside it or in it.
func boxMesh(b mathx.AABB) *geom.Mesh {
	m := &geom.Mesh{}
	for i := 0; i < 8; i++ {
		p := b.Min
		if i&1 != 0 {
			p.X = b.Max.X
		}
		if i&2 != 0 {
			p.Y = b.Max.Y
		}
		if i&4 != 0 {
			p.Z = b.Max.Z
		}
		m.Positions = append(m.Positions, p)
	}
	for _, q := range [6][4]uint32{{0, 1, 3, 2}, {4, 6, 7, 5}, {0, 4, 5, 1}, {2, 3, 7, 6}, {0, 2, 6, 4}, {1, 5, 7, 3}} {
		m.Indices = append(m.Indices,
			q[0], q[1], q[2], q[0], q[2], q[3],
			q[0], q[2], q[1], q[0], q[3], q[2])
	}
	return m
}

// FuzzTileCull checks what the render service's node cull rests on: a
// box that a tile's Frustum rejects, under any model transform and
// camera, draws nothing into that tile — so culling it cannot change the
// tile.
func FuzzTileCull(f *testing.F) {
	// A box in view, one just past a band's lower edge, one straddling
	// the near plane, and one behind the camera.
	f.Add(-1.0, -1.0, -1.0, 2.0, 2.0, 2.0, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0, 45.0, uint8(63), uint8(47), uint8(0), uint8(24), uint8(63), uint8(23))
	f.Add(-1.0, -4.2, -1.0, 2.0, 1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0, 45.0, uint8(63), uint8(47), uint8(0), uint8(0), uint8(63), uint8(23))
	f.Add(-3.0, -3.0, -3.0, 6.0, 6.0, 6.0, 1.1, 0.4, 0.5, 0.0, 2.0, 0.0, 4.0, 70.0, uint8(40), uint8(30), uint8(5), uint8(5), uint8(10), uint8(3))
	f.Add(-1.0, -1.0, 20.0, 2.0, 2.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 10.0, 45.0, uint8(31), uint8(31), uint8(0), uint8(0), uint8(31), uint8(31))

	f.Fuzz(func(t *testing.T, bx, by, bz, ex, ey, ez, yaw, pitch, camYaw, tx, ty, tz, dist, fov float64, fullW, fullH, x0, y0, w, h uint8) {
		for _, v := range []float64{bx, by, bz, ex, ey, ez, yaw, pitch, camYaw, tx, ty, tz, dist, fov} {
			if math.IsNaN(v) || math.Abs(v) > 1e3 {
				t.Skip()
			}
		}
		box := mathx.AABB{Min: mathx.V3(bx, by, bz)}
		box.Max = box.Min.Add(mathx.V3(math.Abs(ex), math.Abs(ey), math.Abs(ez)))
		model := mathx.Translate(mathx.V3(tx, ty, tz)).Mul(mathx.RotateY(yaw)).Mul(mathx.RotateX(pitch))
		cam := DefaultCamera()
		cam.Eye = mathx.V3(math.Sin(camYaw), 0.3, math.Cos(camYaw)).Scale(0.5 + math.Abs(dist))
		cam.FovY = mathx.Radians(10 + math.Mod(math.Abs(fov), 150))
		fw, fh := 1+int(fullW)%96, 1+int(fullH)%96
		rx, ry := int(x0)%fw, int(y0)%fh
		rect := image.Rect(rx, ry, rx+1+int(w)%(fw-rx), ry+1+int(h)%(fh-ry))

		r := tileRenderer(rect, fw, fh)
		if r.Frustum(cam).IntersectsAABB(box.Transform(model)) {
			return
		}
		r.RenderMesh(boxMesh(box), model, cam)
		if n := r.FB.CoveredPixels(); n != 0 {
			t.Fatalf("box %v under a frustum that rejects it wrote %d pixels of tile %v of %dx%d", box, n, rect, fw, fh)
		}
	})
}
