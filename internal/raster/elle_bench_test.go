package raster

import (
	"image"
	"testing"

	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
)

// BenchmarkElleFrame draws the benchmark's scene — Elle at the paper's
// 50 k triangles in eight pieces, seen as bench/rig.go frames it — into
// a cleared framebuffer through a Renderer per frame, each piece lit
// from a Lighting record kept from frame to frame, as
// renderservice.draw draws a replica. full is thin_orbit's 400x400
// frame, halftile the top 640x240 tile of tile_fanout's 640x480, whose
// pieces are culled against the tile's frustum as draw culls a tile
// job's nodes. The -batch cases draw the way draw does with workers to
// fork across: the eight pieces as one batch on scratch kept from frame
// to frame. The others draw a mesh at a time on pooled scratch, as draw
// does for a one-worker service, so full-w2 against full-w2-batch is
// what batching buys. Every frame of full-w2-batch reuses its records;
// full-w2-batch-moving turns the model a little every frame, so every
// frame relights, and the two apart are what the records buy. It exists
// so the rasterizer's stage shares (EXPERIMENTS.md) can be re-derived
// with
//
//	go test ./internal/raster -run '^$' -bench ElleFrame -cpuprofile cpu.out
//
// without touching bench/.
func BenchmarkElleFrame(b *testing.B) {
	mesh := genmodel.Elle(genmodel.PaperElleTriangles)
	pieces := mesh.SplitSpatially(8)
	bounds := make([]mathx.AABB, len(pieces))
	for k, piece := range pieces {
		bounds[k] = piece.Bounds()
	}
	cam := DefaultCamera().FitToBounds(mesh.Bounds(), mathx.V3(0.3, 0.2, 1))
	for _, c := range []struct {
		name         string
		workers      int
		batched      bool
		moving       bool
		tile         image.Rectangle
		fullW, fullH int
	}{
		{"full-w1", 1, false, false, image.Rectangle{}, 400, 400},
		{"full-w2", 2, false, false, image.Rectangle{}, 400, 400},
		{"full-w2-batch", 2, true, false, image.Rectangle{}, 400, 400},
		{"full-w2-batch-moving", 2, true, true, image.Rectangle{}, 400, 400},
		{"halftile-w1", 1, false, false, image.Rect(0, 0, 640, 240), 640, 480},
	} {
		b.Run(c.name, func(b *testing.B) {
			w, h := c.fullW, c.fullH
			if !c.tile.Empty() {
				w, h = c.tile.Dx(), c.tile.Dy()
			}
			fb := NewFramebuffer(w, h)
			var scratch Scratch
			lits := make([]Lighting, len(pieces))
			batch := make([]MeshDraw, 0, len(pieces))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fb.Clear(0, 0, 0)
				r := New(fb)
				r.Opts.Workers = c.workers
				r.Opts.Tile = c.tile
				r.Opts.FullW, r.Opts.FullH = c.fullW, c.fullH
				// A new view every frame, as the orbit gives one.
				view := cam.Orbit(float64(i)*0.05, 0)
				model := mathx.Identity()
				if c.moving {
					model = mathx.RotateY(float64(i) * 0.01)
				}
				frustum := r.Frustum(view)
				batch = batch[:0]
				for k, piece := range pieces {
					if frustum.IntersectsAABB(bounds[k].Transform(model)) {
						batch = append(batch, MeshDraw{Mesh: piece, Model: model, Lit: &lits[k]})
					}
				}
				if c.batched {
					r.Scratch = &scratch
					r.RenderMeshes(batch, view)
					continue
				}
				for k := range batch {
					r.RenderMeshes(batch[k:k+1], view)
				}
			}
		})
	}
}
