package raster

import (
	"fmt"
	"image"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/telemetry"
)

// The vertex and setup stages run across Opts.Workers, each worker
// filling its own triangle list; the image must not be able to tell. A
// depth tie goes to the triangle drawn first, so draw order has to be
// exactly index order at every worker count, on a full frame and on a
// tile, through the clip path and the fast path, and for a mesh too
// small to give every worker a share.

// orderScene is a mesh and the camera to draw it under.
type orderScene struct {
	name string
	mesh *geom.Mesh
	cam  Camera
}

// straddlingGalleon is a galleon seen from inside its own hull, so that
// many triangles cross the near plane and take the clip path.
func straddlingGalleon(t *testing.T) orderScene {
	m := genmodel.Galleon(4000)
	cam := DefaultCamera().FitToBounds(m.Bounds(), mathx.V3(0.3, 0.2, 1)).Dolly(0.12)
	mvp := cam.ViewProjection(96.0 / 64.0)
	straddling := 0
	for i := 0; i < m.TriangleCount(); i++ {
		in := 0
		for _, idx := range m.Indices[3*i : 3*i+3] {
			if c := mvp.MulVec4(mathx.FromPoint(m.Positions[idx])); c.Z+c.W > nearEps {
				in++
			}
		}
		if in == 1 || in == 2 {
			straddling++
		}
	}
	if straddling < 20 {
		t.Fatalf("only %d triangles straddle the near plane; the scene does not test the clip path", straddling)
	}
	if len(m.Positions) < forkMinVerts {
		t.Fatalf("%d vertices: too small to fork, the clip path would only run inline", len(m.Positions))
	}
	return orderScene{"near_straddle", m, cam}
}

// coplanarSheets is two copies of one grid in the same plane, one red
// and one green, drawn a row of cells at a time — all of one colour's
// triangles for the row, then all of the other's, the colour that goes
// first alternating by row. Every covered pixel is a depth tie between a
// red and a green triangle that sit a row's worth of indices apart, and
// which one wins is decided by draw order alone.
func coplanarSheets() orderScene {
	const n = 36 // (n+1)^2 * 2 = 2738 vertices, above forkMinVerts
	m := &geom.Mesh{}
	for _, col := range []mathx.Vec3{mathx.V3(1, 0, 0), mathx.V3(0, 1, 0)} {
		for j := 0; j <= n; j++ {
			for i := 0; i <= n; i++ {
				m.Positions = append(m.Positions, mathx.V3(-1.5+3*float64(i)/n, -1.5+3*float64(j)/n, 0))
				m.Colors = append(m.Colors, col)
			}
		}
	}
	green := uint32((n + 1) * (n + 1))
	for j := 0; j < n; j++ {
		sheets := []uint32{0, green}
		if j%2 == 1 {
			sheets = []uint32{green, 0}
		}
		for _, off := range sheets {
			for i := 0; i < n; i++ {
				a := off + uint32(j*(n+1)+i)
				b, c, d := a+1, a+uint32(n+1), a+uint32(n+2)
				m.Indices = append(m.Indices, a, b, d, a, d, c)
			}
		}
	}
	return orderScene{"coplanar_tie", m, lookingCamera()}
}

// fewTriangles has enough vertices to fork the vertex stage and three
// triangles for up to eight setup workers to share.
func fewTriangles() orderScene {
	m := genmodel.Sphere(mathx.Vec3{}, 1.2, 64, 40)
	if len(m.Positions) < forkMinVerts {
		panic("fewTriangles: sphere too small to fork")
	}
	m.Indices = append([]uint32(nil), m.Indices[len(m.Indices)/2:len(m.Indices)/2+9]...)
	// Look straight down at the three from close by.
	over := m.Positions[m.Indices[0]]
	return orderScene{"few_triangles", m, DefaultCamera().FitToBounds(m.Bounds(), over).Dolly(0.3)}
}

// renderOrder draws sc into a new framebuffer: the whole fullW x fullH
// image for an empty tile, else that tile of it.
func renderOrder(sc orderScene, workers int, tile image.Rectangle, fullW, fullH int, reference bool, met *telemetry.Registry) (*Framebuffer, int) {
	w, h := fullW, fullH
	if !tile.Empty() {
		w, h = tile.Dx(), tile.Dy()
	}
	fb := NewFramebuffer(w, h)
	r := New(fb)
	r.Opts.Workers = workers
	r.Opts.Tile = tile
	r.Opts.FullW, r.Opts.FullH = fullW, fullH
	r.Opts.Metrics, r.Opts.Service = met, "order"
	r.UseReferenceCore(reference)
	r.RenderMesh(sc.mesh, mathx.Identity(), sc.cam)
	return fb, r.TrianglesDrawn
}

func TestWorkersDoNotChangeOrderOrCounts(t *testing.T) {
	const fullW, fullH = 96, 64
	scenes := []orderScene{
		straddlingGalleon(t),
		coplanarSheets(),
		fewTriangles(),
		{"two_triangles", sharedEdgeMesh(), lookingCamera()}, // stays inline at any worker count
	}
	// An uneven vertical and an uneven horizontal split.
	regions := map[string][]image.Rectangle{
		"full":  {{}},
		"tiles": {image.Rect(0, 0, 41, fullH), image.Rect(41, 0, fullW, fullH)},
		"rows":  {image.Rect(0, 0, fullW, 23), image.Rect(0, 23, fullW, fullH)},
	}
	for _, sc := range scenes {
		for regionName, tiles := range regions {
			for _, tile := range tiles {
				serial, serialTris := renderOrder(sc, 1, tile, fullW, fullH, false, nil)
				if serial.CoveredPixels() == 0 && regionName == "full" {
					t.Fatalf("%s: nothing drawn", sc.name)
				}
				where := fmt.Sprintf("%s %s %v", sc.name, regionName, tile)
				ref, refTris := renderOrder(sc, 1, tile, fullW, fullH, true, nil)
				assertParity(t, where+" reference core", serial, ref)
				if refTris != serialTris {
					t.Errorf("%s: reference core drew %d triangles, fixed-point core %d", where, refTris, serialTris)
				}
				for _, workers := range []int{2, 3, 5, 8} {
					met := telemetry.NewRegistry(nil)
					got, tris := renderOrder(sc, workers, tile, fullW, fullH, false, met)
					assertParity(t, fmt.Sprintf("%s Workers=%d", where, workers), got, serial)
					if tris != serialTris {
						t.Errorf("%s: Workers=%d drew %d triangles, Workers=1 drew %d", where, workers, tris, serialTris)
					}
					if n := met.Snapshot().CounterValue("order", "raster_triangles_total", ""); n != int64(serialTris) {
						t.Errorf("%s: Workers=%d: raster_triangles_total = %d, want %d", where, workers, n, serialTris)
					}
				}
			}
		}
	}
}

// TrianglesDrawn feeds the device cost model, and through it every
// Frame.DeviceTime and admission estimate: what counts as drawn is part
// of the renderer's contract. These are the counts the golden scenes
// had before triangles that cover no pixel centre stopped being given a
// setup slot; they are still counted.
func TestGoldenSceneTriangleCounts(t *testing.T) {
	want := map[string]int64{
		"single_tri": 1, "overlap_z": 2, "scissor_tile": 1, "gouraud": 1,
		"degenerate_mix": 2, "sliver_subpixel": 3, "nearclip": 2,
		"shared_edge": 2, "onepixel": 1, "oddview": 251,
	}
	for _, sc := range goldenScenes {
		for _, workers := range []int{1, 3} {
			met := telemetry.NewRegistry(nil)
			sc.renderWith(func(r *Renderer) {
				r.Opts.Workers = workers
				r.Opts.Metrics, r.Opts.Service = met, "golden"
			})
			if got := met.Snapshot().CounterValue("golden", "raster_triangles_total", ""); got != want[sc.name] {
				t.Errorf("%s Workers=%d: raster_triangles_total = %d, want %d", sc.name, workers, got, want[sc.name])
			}
		}
	}
}

// A triangle whose pixel box is empty gets no setup slot, so the box must
// hold every pixel the fill rule could give the triangle: check it
// against the edge functions evaluated at every pixel centre of the
// framebuffer.
func TestPixelBoxHoldsEveryCoveredPixel(t *testing.T) {
	const w, h = 24, 16
	rng := rand.New(rand.NewSource(21))
	empty, covered := 0, 0
	for n := 0; n < 4000; n++ {
		// Small triangles around a point on or a little off the
		// framebuffer, from slivers between pixel centres to several
		// pixels across.
		cx, cy := rng.Float64()*w*1.4-w*0.2, rng.Float64()*h*1.4-h*0.2
		size := []float64{0.3, 0.8, 2, 9}[n%4]
		var v [3]screenVert
		for i := range v {
			v[i].sx = snapCoord(cx + (rng.Float64()-0.5)*size)
			v[i].sy = snapCoord(cy + (rng.Float64()-0.5)*size)
		}
		if !frontFacing(&v[0], &v[1], &v[2]) {
			v[1], v[2] = v[2], v[1]
			if !frontFacing(&v[0], &v[1], &v[2]) {
				continue // zero area
			}
		}
		minX, minY, maxX, maxY := pixelBox(&v[0], &v[1], &v[2], w, h)
		if minX > maxX || minY > maxY {
			empty++
		}
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				px, py := int64(x)*subScale+subHalf, int64(y)*subScale+subHalf
				inside := true
				for k := 0; k < 3; k++ {
					a, b := &v[(k+1)%3], &v[(k+2)%3]
					dx, dy := int64(b.sx)-int64(a.sx), int64(b.sy)-int64(a.sy)
					if dx*(py-int64(a.sy))-dy*(px-int64(a.sx))+edgeBias(dx, dy) > 0 {
						inside = false
					}
				}
				if !inside {
					continue
				}
				covered++
				if x < minX || x > maxX || y < minY || y > maxY {
					t.Fatalf("triangle %d: pixel (%d,%d) is covered but outside the pixel box [%d,%d]x[%d,%d]",
						n, x, y, minX, maxX, minY, maxY)
				}
			}
		}
	}
	if empty < 100 || covered < 100 {
		t.Fatalf("weak sample: %d empty boxes, %d covered pixels", empty, covered)
	}
}
