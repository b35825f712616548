package raster

import (
	"bytes"
	"fmt"
	"image"
	"testing"

	"repro/internal/mathx"
)

// A Lighting record lets a mesh drawn again under the same model
// transform and light copy its lit colours instead of relighting them.
// The copy must be exact — every colour byte and depth bit of a draw
// with kept records equals a draw with none — and any change to what
// lighting reads must relight.

const litFullW, litFullH = 96, 64

// mixedSlabs is elleSlabs with one slab given vertex colours and another
// stripped of its normals, so the batch holds meshes with both, with
// normals only and with neither.
func mixedSlabs() batchScene {
	sc := elleSlabs()
	sc.name = "mixed_slabs"
	coloured, flat := sc.batch[3].Mesh.Clone(), sc.batch[4].Mesh.Clone()
	coloured.Colors = make([]mathx.Vec3, len(coloured.Positions))
	for i := range coloured.Colors {
		coloured.Colors[i] = mathx.V3(float64(i%7)/6, 0.5, float64(i%3)/2)
	}
	flat.Normals = nil
	sc.batch[3].Mesh, sc.batch[4].Mesh = coloured, flat
	return sc
}

// litDraw draws batch under view into a new framebuffer with opts on the
// given tile of a litFullW x litFullH image, each mesh lit from lits[k]
// when lits is set. With workers to fork across the batch is drawn at
// once on scratch; with one worker a mesh at a time on pooled scratch,
// as a one-worker render service draws.
func litDraw(batch []MeshDraw, view Camera, opts Options, workers int, tile image.Rectangle, lits []Lighting, scratch *Scratch) *Framebuffer {
	w, h := litFullW, litFullH
	if !tile.Empty() {
		w, h = tile.Dx(), tile.Dy()
	}
	fb := NewFramebuffer(w, h)
	r := New(fb)
	r.Opts = opts
	r.Opts.Workers, r.Opts.Tile, r.Opts.FullW, r.Opts.FullH = workers, tile, litFullW, litFullH
	batch = append([]MeshDraw(nil), batch...)
	for k := range batch {
		batch[k].Lit = nil
		if lits != nil {
			batch[k].Lit = &lits[k]
		}
	}
	if workers < 2 {
		for _, d := range batch {
			r.RenderMeshes([]MeshDraw{d}, view)
		}
		return fb
	}
	r.Scratch = scratch
	r.RenderMeshes(batch, view)
	return fb
}

// clipRecords counts the near-plane clip records the last batch drawn on
// s made.
func clipRecords(s *Scratch) int {
	n := 0
	for k := range s.meshes {
		for w := range s.meshes[k].lists {
			n += len(s.meshes[k].lists[w].clip)
		}
	}
	return n
}

// poison overwrites every kept colour, so a draw that copies instead of
// relighting shows it.
func poison(lits []Lighting) {
	for k := range lits {
		for i := range lits[k].colors {
			lits[k].colors[i] = mathx.V3(1, 0, 1)
		}
	}
}

func TestLightingReuseIsExact(t *testing.T) {
	t.Run("orbit", func(t *testing.T) {
		for _, sc := range []batchScene{mixedSlabs(), clipAndTies(t)} {
			for _, tile := range []image.Rectangle{{}, image.Rect(0, 23, 41, litFullH)} {
				for _, workers := range []int{1, 2, 5} {
					where := fmt.Sprintf("%s %v Workers=%d", sc.name, tile, workers)
					lits := make([]Lighting, len(sc.batch))
					var scratch Scratch
					clipped := 0
					for i := 0; i < 30; i++ {
						view := sc.cam.Orbit(0.02*float64(i), 0.01*float64(i%4))
						got := litDraw(sc.batch, view, DefaultOptions(), workers, tile, lits, &scratch)
						clipped += clipRecords(&scratch)
						want := litDraw(sc.batch, view, DefaultOptions(), workers, tile, nil, nil)
						assertParity(t, fmt.Sprintf("%s view %d", where, i), got, want)
					}
					if sc.name == "clip_and_ties" && workers >= 2 && tile.Empty() && clipped == 0 {
						t.Errorf("%s: no view took the near-plane clip path", where)
					}
				}
			}
		}
	})

	// Each step changes one thing lighting reads under the same records.
	// Before it, the kept colours are poisoned: a draw that reuses them
	// must show it, and the changed draw must relight every one of them.
	t.Run("invalidation", func(t *testing.T) {
		base := mixedSlabs()
		move := func(m mathx.Mat4) func([]MeshDraw, *Options) {
			return func(b []MeshDraw, _ *Options) {
				for k := range b {
					b[k].Model = m.Mul(b[k].Model)
				}
			}
		}
		steps := []struct {
			name   string
			change func(batch []MeshDraw, opts *Options)
		}{
			{"rotation", move(mathx.RotateY(0.4))},
			{"translation", move(mathx.Translate(mathx.V3(0.01, -0.02, 0)))},
			{"light", func(_ []MeshDraw, o *Options) { o.Light = mathx.V3(-0.5, 0.3, 1) }},
			{"ambient", func(_ []MeshDraw, o *Options) { o.Ambient = 0.6 }},
			{"default colour", func(_ []MeshDraw, o *Options) { o.DefaultColor = mathx.V3(0.3, 0.9, 0.5) }},
			// An equal copy of every mesh: only the pointer tells it apart.
			{"mesh", func(b []MeshDraw, _ *Options) {
				for k := range b {
					b[k].Mesh = b[k].Mesh.Clone()
				}
			}},
		}
		for _, workers := range []int{1, 2} {
			batch := append([]MeshDraw(nil), base.batch...)
			opts := DefaultOptions()
			lits := make([]Lighting, len(batch))
			var scratch Scratch
			view := base.cam.Orbit(0.3, 0.1)
			litDraw(batch, view, opts, workers, image.Rectangle{}, lits, &scratch)
			for _, st := range steps {
				where := fmt.Sprintf("Workers=%d %s", workers, st.name)
				fresh := litDraw(batch, view, opts, workers, image.Rectangle{}, nil, nil)
				poison(lits)
				if stale := litDraw(batch, view, opts, workers, image.Rectangle{}, lits, &scratch); bytes.Equal(stale.Color, fresh.Color) {
					t.Fatalf("%s: an unchanged draw did not reuse the kept colours", where)
				}
				st.change(batch, &opts)
				got := litDraw(batch, view, opts, workers, image.Rectangle{}, lits, &scratch)
				assertParity(t, where, got, litDraw(batch, view, opts, workers, image.Rectangle{}, nil, nil))
			}
		}
	})

	// One record named by two draws of a forked batch under different
	// models lights the second without it (under -race, a record both
	// draws wrote would show as a race).
	t.Run("shared", func(t *testing.T) {
		sc := clipAndTies(t)
		galleon := sc.batch[0].Mesh
		var lit Lighting
		batch := []MeshDraw{
			{Mesh: galleon, Model: mathx.Identity(), Lit: &lit},
			{Mesh: galleon, Model: mathx.RotateY(0.5), Lit: &lit},
		}
		view := sc.cam.Orbit(0.2, 0)
		for i := 0; i < 3; i++ {
			fb := NewFramebuffer(litFullW, litFullH)
			r := New(fb)
			r.Opts.Workers = 2
			r.RenderMeshes(batch, view)
			assertParity(t, fmt.Sprintf("draw %d", i), fb, litDraw(batch, view, DefaultOptions(), 2, image.Rectangle{}, nil, nil))
		}
	})
}
