package compositor

import (
	"image"
	"math/rand"
	"testing"

	"repro/internal/geom/genmodel"
	"repro/internal/marshal"
	"repro/internal/mathx"
	"repro/internal/raster"
)

// sent is a part as a render service returns it: its spans frame.
func sent(t testing.TB, rect image.Rectangle, fb *raster.Framebuffer) Tile {
	frame := marshal.AppendFrame(nil, fb, true)
	if _, _, err := marshal.CheckFrame(frame); err != nil {
		t.Fatal(err)
	}
	return Tile{Rect: rect, Frame: frame}
}

// TestCompositeTilesAsSentEqualsCompositeAll: parts painted as they were
// sent, or some sent and some dense, composite bit for bit as
// CompositeAll composites the decoded parts — randomPart's ties, NaN
// and +Inf-with-colour included.
func TestCompositeTilesAsSentEqualsCompositeAll(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for round := 0; round < 200; round++ {
		w, h := 1+rng.Intn(24), 1+rng.Intn(12)
		parts := make([]*raster.Framebuffer, 1+rng.Intn(4))
		tiles := make([]Tile, len(parts))
		for i := range parts {
			parts[i] = randomPart(rng, w, h)
			tiles[i] = sent(t, image.Rect(0, 0, w, h), parts[i])
			if rng.Intn(3) == 0 {
				tiles[i] = Tile{Rect: tiles[i].Rect, FB: parts[i]}
			}
		}
		want, err := CompositeAll(w, h, parts...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := CompositeTiles(w, h, tiles)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("round %d: %d parts as sent composite differently", round, len(parts))
		}
	}
	wrong := sent(t, image.Rect(0, 0, 5, 4), raster.NewFramebuffer(5, 4))
	if _, err := CompositeTiles(4, 4, []Tile{wrong}); err == nil {
		t.Error("a 5x4 part composited into a 4x4 frame")
	}
}

// TestAssembleTilesLaterTilesWin: over an earlier tile, a later one owns
// its rectangle whichever kind either is — a tile as sent clears what
// it did not draw there — so assembling tiles as sent is assembling
// their decoded buffers.
func TestAssembleTilesLaterTilesWin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rects := []image.Rectangle{image.Rect(0, 0, 12, 8), image.Rect(2, 1, 9, 6), image.Rect(6, 4, 12, 8), image.Rect(0, 0, 3, 3)}
	for round := 0; round < 50; round++ {
		dense, mixed := make([]Tile, len(rects)), make([]Tile, len(rects))
		for i, r := range rects {
			fb := randomPart(rng, r.Dx(), r.Dy())
			dense[i], mixed[i] = Tile{Rect: r, FB: fb}, Tile{Rect: r, FB: fb}
			if rng.Intn(4) != 0 {
				mixed[i] = sent(t, r, fb)
			}
		}
		want, err := AssembleTiles(12, 8, dense)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AssembleTiles(12, 8, mixed)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("round %d: tiles as sent assemble differently from their buffers", round)
		}
	}
	if _, err := AssembleTiles(8, 8, []Tile{sent(t, image.Rect(0, 0, 4, 4), raster.NewFramebuffer(3, 4))}); err == nil {
		t.Error("a 3x4 frame assembled into a 4x4 rect")
	}
	if _, err := AssembleTiles(8, 8, []Tile{sent(t, image.Rect(6, 6, 10, 10), raster.NewFramebuffer(4, 4))}); err == nil {
		t.Error("a tile as sent assembled outside the frame")
	}
}

// BenchmarkAssemble assembles two recorded 640×480 replies as sent: the
// halves of a frame (tiles), or each half of a scene over the whole frame
// (subsets). Run once by make bench-smoke; recorded in EXPERIMENTS.md.
func BenchmarkAssemble(b *testing.B) {
	const w, h = 640, 480
	meshes := []*raster.MeshDraw{
		{Mesh: genmodel.Elle(4000), Model: mathx.Identity()},
		{Mesh: genmodel.Sphere(mathx.V3(0.6, 0.2, 0.3), 0.35, 32, 16), Model: mathx.Identity()},
	}
	cam := raster.DefaultCamera().FitToBounds(meshes[0].Mesh.Bounds(), mathx.V3(0.3, 0.2, 1))
	draw := func(rect image.Rectangle, ms ...*raster.MeshDraw) *raster.Framebuffer {
		fb := raster.NewFramebuffer(rect.Dx(), rect.Dy())
		r := raster.New(fb)
		r.Opts.Tile, r.Opts.FullW, r.Opts.FullH = rect, w, h
		for _, m := range ms {
			r.RenderMesh(m.Mesh, m.Model, cam)
		}
		return fb
	}
	whole, top, bottom := image.Rect(0, 0, w, h), image.Rect(0, 0, w, h/2), image.Rect(0, h/2, w, h)
	tiles := []Tile{sent(b, top, draw(top, meshes...)), sent(b, bottom, draw(bottom, meshes...))}
	subsets := []Tile{sent(b, whole, draw(whole, meshes[0])), sent(b, whole, draw(whole, meshes[1]))}
	b.Run("tiles", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkFB, _ = AssembleTiles(w, h, tiles)
		}
	})
	b.Run("subsets", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkFB, _ = CompositeTiles(w, h, subsets)
		}
	})
}
