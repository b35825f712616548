package raster

import (
	"bytes"
	"flag"
	"fmt"
	"image"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/geom/genmodel"
	"repro/internal/imgcodec"
	"repro/internal/mathx"
)

// Golden-image regression tests: each scene renders deterministically
// (snapped fixed-point coverage, no concurrency dependence in the
// output) and is compared byte-for-byte against a checked-in PNG.
// Regenerate after an intentional rasterizer change with
//
//	go test ./internal/raster/ -run TestGolden -update
var updateGoldens = flag.Bool("update", false, "rewrite golden images instead of comparing")

// goldenScene is one pinned rasterizer behavior. renderWith applies an
// extra renderer configuration hook before drawing, so the parity
// suite can replay the exact corpus through the reference core.
type goldenScene struct {
	name       string
	renderWith func(cfg func(*Renderer)) *Framebuffer
}

func (s goldenScene) render() *Framebuffer { return s.renderWith(nil) }

// goldenScenes pin basic shading, the depth test, tile scissoring,
// Gouraud interpolation, and the rasterizer's edge cases: degenerate
// triangles, sub-pixel slivers, near-plane clipping, shared-edge
// adjacency, and 1-px / odd-sized viewports.
var goldenScenes = []goldenScene{
	{"single_tri", renderSingleTri},
	{"overlap_z", renderOverlapZ},
	{"scissor_tile", renderScissorTile},
	{"gouraud", renderGouraud},
	{"degenerate_mix", renderDegenerateMix},
	{"sliver_subpixel", renderSliverSubpixel},
	{"nearclip", renderNearClip},
	{"shared_edge", renderSharedEdge},
	{"onepixel", renderOnePixel},
	{"oddview", renderOddView},
}

// apply runs the optional configuration hook.
func apply(r *Renderer, cfg func(*Renderer)) {
	if cfg != nil {
		cfg(r)
	}
}

func renderSingleTri(cfg func(*Renderer)) *Framebuffer {
	fb := NewFramebuffer(64, 64)
	r := New(fb)
	apply(r, cfg)
	r.RenderMesh(frontTriangle(), mathx.Identity(), lookingCamera())
	return fb
}

func renderOverlapZ(cfg func(*Renderer)) *Framebuffer {
	near := frontTriangle()
	near.SetUniformColor(mathx.V3(1, 0, 0))
	far := frontTriangle()
	far.SetUniformColor(mathx.V3(0, 1, 0))
	transformMesh(far, mathx.Translate(mathx.V3(0.4, 0, -2)))
	fb := NewFramebuffer(64, 64)
	r := New(fb)
	r.Opts.Ambient = 1 // flat shading: exact colors pin the depth winner
	apply(r, cfg)
	r.RenderMesh(far, mathx.Identity(), lookingCamera())
	r.RenderMesh(near, mathx.Identity(), lookingCamera())
	return fb
}

func renderScissorTile(cfg func(*Renderer)) *Framebuffer {
	// The center 32x32 tile of a 64x64 image: the triangle's edges must
	// land exactly where the full-image render puts them, clipped to the
	// tile (framebuffer distribution correctness).
	tile := image.Rect(16, 16, 48, 48)
	fb := NewFramebuffer(tile.Dx(), tile.Dy())
	r := New(fb)
	r.Opts.Tile = tile
	r.Opts.FullW, r.Opts.FullH = 64, 64
	apply(r, cfg)
	r.RenderMesh(frontTriangle(), mathx.Identity(), lookingCamera())
	return fb
}

func renderGouraud(cfg func(*Renderer)) *Framebuffer {
	m := &geom.Mesh{
		Positions: []mathx.Vec3{
			mathx.V3(-1, -1, 0), mathx.V3(1, -1, 0), mathx.V3(0, 1, 0),
		},
		Colors: []mathx.Vec3{
			mathx.V3(1, 0, 0), mathx.V3(0, 1, 0), mathx.V3(0, 0, 1),
		},
		Indices: []uint32{0, 1, 2},
	}
	m.ComputeNormals()
	fb := NewFramebuffer(64, 64)
	r := New(fb)
	r.Opts.Ambient = 1 // no diffuse term: the gradient is pure interpolation
	apply(r, cfg)
	r.RenderMesh(m, mathx.Identity(), lookingCamera())
	return fb
}

func renderDegenerateMix(cfg func(*Renderer)) *Framebuffer {
	// Zero-area triangles (duplicate vertices, repeated index, and a
	// pair that collapses on the subpixel grid) interleaved with real
	// geometry: the degenerates must contribute nothing, the real
	// triangles must be unaffected by their neighbors in the stream.
	m := &geom.Mesh{
		Positions: []mathx.Vec3{
			mathx.V3(0, 0, 0), mathx.V3(0, 0, 0), mathx.V3(1, 1, 0), // duplicate verts
			mathx.V3(-1, -1, 0), mathx.V3(1, -1, 0), mathx.V3(0, 0.2, 0), // real
			mathx.V3(-1, 1, 0), mathx.V3(-1+1e-9, 1, 0), mathx.V3(1, 1, 0), // collapses when snapped
			mathx.V3(-0.8, 0.4, 0.5), mathx.V3(0.2, 0.4, 0.5), mathx.V3(-0.3, 0.9, 0.5), // real
		},
		Indices: []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 3, 3, 4},
	}
	m.SetUniformColor(mathx.V3(0.9, 0.6, 0.2))
	fb := NewFramebuffer(64, 64)
	r := New(fb)
	r.Opts.Ambient = 1
	apply(r, cfg)
	r.RenderMesh(m, mathx.Identity(), lookingCamera())
	return fb
}

func renderSliverSubpixel(cfg func(*Renderer)) *Framebuffer {
	// Long triangles well under a pixel wide, at horizontal, vertical
	// and diagonal orientations: coverage must come only from pixel
	// centers actually inside the snapped sliver — no fattening, no
	// dropped interior runs.
	m := &geom.Mesh{
		Positions: []mathx.Vec3{
			mathx.V3(-1.8, -1.5, 0), mathx.V3(1.8, -1.5, 0), mathx.V3(-1.8, -1.47, 0),
			mathx.V3(-1.5, -1.8, 0), mathx.V3(-1.47, 1.8, 0), mathx.V3(-1.5, 1.8, 0),
			mathx.V3(-1.6, -1.6, 0), mathx.V3(1.6, 1.57, 0), mathx.V3(1.6, 1.6, 0),
		},
		Indices: []uint32{0, 1, 2, 3, 4, 5, 6, 7, 8},
	}
	m.SetUniformColor(mathx.V3(1, 1, 1))
	fb := NewFramebuffer(64, 64)
	r := New(fb)
	r.Opts.Ambient = 1
	apply(r, cfg)
	r.RenderMesh(m, mathx.Identity(), lookingCamera())
	return fb
}

func renderNearClip(cfg func(*Renderer)) *Framebuffer {
	// One vertex far behind the camera: the triangle must be clipped
	// against the near plane into two, with the interpolated clip
	// vertices landing exactly where the reference core puts them.
	m := &geom.Mesh{
		Positions: []mathx.Vec3{
			mathx.V3(-1.2, -1, 0), mathx.V3(1.2, -1, 0), mathx.V3(0, 0.8, 7),
		},
		Indices: []uint32{0, 1, 2},
	}
	m.SetUniformColor(mathx.V3(0.3, 0.8, 1))
	fb := NewFramebuffer(64, 64)
	r := New(fb)
	r.Opts.Ambient = 1
	apply(r, cfg)
	r.RenderMesh(m, mathx.Identity(), lookingCamera())
	return fb
}

// sharedEdgeMesh is a quad split along its diagonal into two flat-color
// triangles; the diagonal is the shared edge the fill rule must shade
// exactly once.
func sharedEdgeMesh() *geom.Mesh {
	return &geom.Mesh{
		Positions: []mathx.Vec3{
			// Red triangle: lower-right of the diagonal.
			mathx.V3(-1, -1, 0), mathx.V3(1, -1, 0), mathx.V3(1, 1, 0),
			// Green triangle: upper-left of the diagonal.
			mathx.V3(-1, -1, 0), mathx.V3(1, 1, 0), mathx.V3(-1, 1, 0),
		},
		Colors: []mathx.Vec3{
			mathx.V3(1, 0, 0), mathx.V3(1, 0, 0), mathx.V3(1, 0, 0),
			mathx.V3(0, 1, 0), mathx.V3(0, 1, 0), mathx.V3(0, 1, 0),
		},
		Indices: []uint32{0, 1, 2, 3, 4, 5},
	}
}

func renderSharedEdge(cfg func(*Renderer)) *Framebuffer {
	fb := NewFramebuffer(64, 64)
	r := New(fb)
	r.Opts.Ambient = 1
	apply(r, cfg)
	r.RenderMesh(sharedEdgeMesh(), mathx.Identity(), lookingCamera())
	return fb
}

func renderOnePixel(cfg func(*Renderer)) *Framebuffer {
	fb := NewFramebuffer(1, 1)
	r := New(fb)
	apply(r, cfg)
	r.RenderMesh(frontTriangle(), mathx.Identity(), lookingCamera())
	return fb
}

func renderOddView(cfg func(*Renderer)) *Framebuffer {
	// Odd, non-square viewport: row strides and the band split must not
	// assume even dimensions.
	m := genmodel.Galleon(600)
	cam := DefaultCamera().FitToBounds(m.Bounds(), mathx.V3(0.3, 0.2, 1))
	fb := NewFramebuffer(33, 17)
	r := New(fb)
	apply(r, cfg)
	r.RenderMesh(m, mathx.Identity(), cam)
	return fb
}

func TestGoldenImages(t *testing.T) {
	for _, sc := range goldenScenes {
		t.Run(sc.name, func(t *testing.T) {
			fb := sc.render()
			path := filepath.Join("testdata", sc.name+".png")
			if *updateGoldens {
				var buf bytes.Buffer
				if err := imgcodec.WritePNG(&buf, fb.W, fb.H, fb.Color); err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			w, h, want, err := imgcodec.ReadPNG(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if w != fb.W || h != fb.H {
				t.Fatalf("golden is %dx%d, render is %dx%d", w, h, fb.W, fb.H)
			}
			if !bytes.Equal(fb.Color, want) {
				t.Fatal(diffSummary(fb.Color, want, fb.W))
			}
		})
	}
}

// diffSummary reports how many pixels differ and where the first
// mismatch is, so a failing golden is diagnosable from the test log.
func diffSummary(got, want []byte, w int) string {
	diffs, firstX, firstY := 0, -1, -1
	for i := 0; i+2 < len(got) && i+2 < len(want); i += 3 {
		if got[i] != want[i] || got[i+1] != want[i+1] || got[i+2] != want[i+2] {
			if diffs == 0 {
				px := i / 3
				firstX, firstY = px%w, px/w
			}
			diffs++
		}
	}
	return fmt.Sprintf("render differs from golden: %d pixels differ, first at (%d,%d)", diffs, firstX, firstY)
}
