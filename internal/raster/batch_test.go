package raster

import (
	"fmt"
	"image"
	"testing"

	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/telemetry"
)

// A batch forks each stage once for all its meshes, but its bands fill
// meshes in batch order and a mesh's setup lists in worker order: the
// serial order. So RenderMeshes must draw exactly what RenderMesh on each
// mesh in turn draws at one worker — every colour byte, every depth bit,
// the same triangle count — at any worker count, on the frame and on a
// tile. One Scratch serves every batch and worker count below, so a
// scratch grown for one batch shape and reused for another is covered.

// batchScene is a mesh batch and the camera to draw it under.
type batchScene struct {
	name  string
	batch []MeshDraw
	cam   Camera
}

// elleSlabs is the benchmark's scene at a tenth of its size: Elle cut
// into eight slabs, each a horizontal piece of an upright figure.
func elleSlabs() batchScene {
	m := genmodel.Elle(genmodel.PaperElleTriangles / 10)
	var batch []MeshDraw
	for _, piece := range m.SplitSpatially(8) {
		batch = append(batch, MeshDraw{Mesh: piece, Model: mathx.Identity()})
	}
	return batchScene{"elle_slabs", batch, DefaultCamera().FitToBounds(m.Bounds(), mathx.V3(0.3, 0.2, 1))}
}

// facing returns the model transform that stands the z = 0 plane up
// facing cam, centred on its line of sight at distance d, scaled by s.
func facing(cam Camera, d, s float64) mathx.Mat4 {
	fwd := cam.Target.Sub(cam.Eye).Normalize()
	right := fwd.Cross(cam.Up).Normalize()
	up := right.Cross(fwd)
	c := cam.Eye.Add(fwd.Scale(d))
	return mathx.Mat4{
		right.X * s, up.X * s, -fwd.X * s, c.X,
		right.Y * s, up.Y * s, -fwd.Y * s, c.Y,
		right.Z * s, up.Z * s, -fwd.Z * s, c.Z,
		0, 0, 0, 1,
	}
}

// clipAndTies is the straddling galleon, whose near-plane clip records
// sit in every setup worker's list, with the coplanar sheets stood up in
// front of the camera inside its hull twice. The second copy draws its
// triangles in reverse, so on its own it shows the other colour in every
// row; it ties the first copy at every pixel, so which image shows is
// decided across meshes by batch order alone.
func clipAndTies(t *testing.T) batchScene {
	galleon, sheets := straddlingGalleon(t), coplanarSheets()
	reversed := sheets.mesh.Clone()
	for i, j := 0, reversed.TriangleCount()-1; i < j; i, j = i+1, j-1 {
		a, b := reversed.Indices[3*i:3*i+3], reversed.Indices[3*j:3*j+3]
		for k := range a {
			a[k], b[k] = b[k], a[k]
		}
	}
	d := galleon.cam.Eye.Dist(galleon.cam.Target) / 2
	model := facing(galleon.cam, d, 0.15*d)
	return batchScene{"clip_and_ties", []MeshDraw{
		{Mesh: galleon.mesh, Model: mathx.Identity()},
		{Mesh: sheets.mesh, Model: model},
		{Mesh: reversed, Model: model},
	}, galleon.cam}
}

// smallMeshes is six overlapping spheres, each too small to fork alone
// and together large enough to.
func smallMeshes(t *testing.T) batchScene {
	var batch []MeshDraw
	bounds := mathx.EmptyAABB()
	nv := 0
	for i := 0; i < 6; i++ {
		m := genmodel.Sphere(mathx.V3(float64(i%3)*0.9, float64(i/3)*0.9, float64(i%2)*0.4), 0.7, 24, 16)
		if len(m.Positions) >= forkMinVerts {
			t.Fatalf("sphere %d has %d vertices: not below forkMinVerts", i, len(m.Positions))
		}
		nv += len(m.Positions)
		bounds = bounds.Union(m.Bounds())
		batch = append(batch, MeshDraw{Mesh: m, Model: mathx.Identity()})
	}
	if nv < forkMinVerts {
		t.Fatalf("%d vertices in all: the batch would not fork", nv)
	}
	return batchScene{"small_meshes", batch, DefaultCamera().FitToBounds(bounds, mathx.V3(0.2, 0.3, 1))}
}

// renderBatch draws sc into a new framebuffer, batched on scratch when
// it is set and a mesh at a time on pooled scratch when it is nil.
func renderBatch(sc batchScene, workers int, tile image.Rectangle, fullW, fullH int, scratch *Scratch, met *telemetry.Registry) (*Framebuffer, int) {
	w, h := fullW, fullH
	if !tile.Empty() {
		w, h = tile.Dx(), tile.Dy()
	}
	fb := NewFramebuffer(w, h)
	r := New(fb)
	r.Opts.Workers = workers
	r.Opts.Tile = tile
	r.Opts.FullW, r.Opts.FullH = fullW, fullH
	r.Opts.Metrics, r.Opts.Service = met, "batch"
	if scratch != nil {
		r.Scratch = scratch
		r.RenderMeshes(sc.batch, sc.cam)
		return fb, r.TrianglesDrawn
	}
	tris := 0
	for _, d := range sc.batch {
		r.RenderMesh(d.Mesh, d.Model, sc.cam)
		tris += r.TrianglesDrawn
	}
	return fb, tris
}

func TestBatchEqualsMeshByMesh(t *testing.T) {
	const fullW, fullH = 96, 64
	var scratch Scratch
	for _, sc := range []batchScene{elleSlabs(), clipAndTies(t), smallMeshes(t)} {
		for _, tile := range []image.Rectangle{{}, image.Rect(0, 23, 41, fullH)} {
			where := fmt.Sprintf("%s %v", sc.name, tile)
			serial, serialTris := renderBatch(sc, 1, tile, fullW, fullH, nil, nil)
			if tile.Empty() && serial.CoveredPixels() < 300 {
				t.Fatalf("%s: only %d pixels drawn", where, serial.CoveredPixels())
			}
			for _, workers := range []int{2, 3, 5, 8} {
				met := telemetry.NewRegistry(nil)
				got, tris := renderBatch(sc, workers, tile, fullW, fullH, &scratch, met)
				assertParity(t, fmt.Sprintf("%s Workers=%d", where, workers), got, serial)
				if tris != serialTris {
					t.Errorf("%s: Workers=%d batch drew %d triangles, mesh by mesh %d", where, workers, tris, serialTris)
				}
				if n := met.Snapshot().CounterValue("batch", "raster_triangles_total", ""); n != int64(serialTris) {
					t.Errorf("%s: Workers=%d: raster_triangles_total = %d, want %d", where, workers, n, serialTris)
				}
			}
		}
	}
}

// The tie scene must show both sheets' colours, or batch order decides
// no visible tie and the test above proves less than it says.
func TestClipAndTiesShowsTheSheets(t *testing.T) {
	fb, _ := renderBatch(clipAndTies(t), 1, image.Rectangle{}, 96, 64, nil, nil)
	red, green := 0, 0
	for y := 0; y < fb.H; y++ {
		for x := 0; x < fb.W; x++ {
			switch r, g, b := fb.At(x, y); {
			case r == 255 && g == 0 && b == 0:
				red++
			case r == 0 && g == 255 && b == 0:
				green++
			}
		}
	}
	if red < 50 || green < 50 {
		t.Fatalf("%d red and %d green pixels: the sheets are not in view", red, green)
	}
}
