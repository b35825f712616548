package raster

import (
	"image"
	"testing"

	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
)

// BenchmarkElleFrame draws the benchmark's scene — Elle at the paper's
// 50 k triangles in eight pieces, seen as bench/rig.go frames it — into
// a cleared framebuffer through a Renderer per frame. full is
// thin_orbit's 400x400 frame, halftile the top 640x240 tile of
// tile_fanout's 640x480. The -batch case draws the way
// renderservice.draw does with workers to fork across: the eight pieces
// as one batch on scratch kept from frame to frame. The others draw a
// mesh at a time on pooled scratch, as draw does for a one-worker
// service, so full-w2 against full-w2-batch is what batching buys. It
// exists so the rasterizer's stage shares (EXPERIMENTS.md) can be
// re-derived with
//
//	go test ./internal/raster -run '^$' -bench ElleFrame -cpuprofile cpu.out
//
// without touching bench/.
func BenchmarkElleFrame(b *testing.B) {
	mesh := genmodel.Elle(genmodel.PaperElleTriangles)
	pieces := mesh.SplitSpatially(8)
	batch := make([]MeshDraw, len(pieces))
	for i, piece := range pieces {
		batch[i] = MeshDraw{Mesh: piece, Model: mathx.Identity()}
	}
	cam := DefaultCamera().FitToBounds(mesh.Bounds(), mathx.V3(0.3, 0.2, 1))
	for _, c := range []struct {
		name         string
		workers      int
		batched      bool
		tile         image.Rectangle
		fullW, fullH int
	}{
		{"full-w1", 1, false, image.Rectangle{}, 400, 400},
		{"full-w2", 2, false, image.Rectangle{}, 400, 400},
		{"full-w2-batch", 2, true, image.Rectangle{}, 400, 400},
		{"halftile-w1", 1, false, image.Rect(0, 0, 640, 240), 640, 480},
	} {
		b.Run(c.name, func(b *testing.B) {
			w, h := c.fullW, c.fullH
			if !c.tile.Empty() {
				w, h = c.tile.Dx(), c.tile.Dy()
			}
			fb := NewFramebuffer(w, h)
			var scratch Scratch
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
				if c.batched {
					r.Scratch = &scratch
					r.RenderMeshes(batch, view)
					continue
				}
				for _, piece := range pieces {
					r.RenderMesh(piece, mathx.Identity(), view)
				}
			}
		})
	}
}
