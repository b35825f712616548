// Package compositor merges partial renderings, implementing the paper's
// two workload-distribution modes (§3.2.5): depth compositing of
// frame+depth buffer pairs produced by dataset distribution (restricted to
// opaque solids, so no ordering is required), and tile assembly for
// framebuffer distribution, including the tear detection that Figure 5
// illustrates when tiles arrive from renderers at different scene
// versions.
package compositor

import (
	"fmt"
	"image"
	"math"

	"repro/internal/raster"
)

// cleared8 reports whether the eight depths d starts with are all +Inf:
// pixels that win no depth test, and most of a subset's buffer.
func cleared8(d []float32) bool {
	const m = math.MaxFloat32
	_ = d[7]
	return d[0] > m && d[1] > m && d[2] > m && d[3] > m && d[4] > m && d[5] > m && d[6] > m && d[7] > m
}

// DepthComposite merges the source framebuffer into dst: for every pixel
// the nearer depth wins. Both buffers must be the same size and share the
// same camera (the paper's collaborating render services share the camera
// so the framebuffers align exactly). dst is modified in place.
func DepthComposite(dst, src *raster.Framebuffer) error {
	if dst.W != src.W || dst.H != src.H {
		return fmt.Errorf("compositor: size mismatch %dx%d vs %dx%d", dst.W, dst.H, src.W, src.H)
	}
	for i, n := 0, len(dst.Depth); i < n; i++ {
		if i+8 <= n && cleared8(src.Depth[i:]) {
			i += 7 // and the loop's one
		} else if src.Depth[i] < dst.Depth[i] {
			dst.Depth[i] = src.Depth[i]
			dst.Color[3*i], dst.Color[3*i+1], dst.Color[3*i+2] = src.Color[3*i], src.Color[3*i+1], src.Color[3*i+2]
		}
	}
	return nil
}

// CompositeAll depth-composites any number of partial renderings into a
// fresh framebuffer of the given size, leaving the parts as they were.
// The result is what merging each in turn into a cleared buffer gives (a
// pixel no part drew nearer than +Inf stays cleared whatever its colour,
// the earlier part wins a tie), but the first part is taken, not compared.
func CompositeAll(w, h int, parts ...*raster.Framebuffer) (*raster.Framebuffer, error) {
	if len(parts) == 0 {
		return raster.NewFramebuffer(w, h), nil
	}
	first := parts[0]
	if first.W != w || first.H != h { // the rest are DepthComposite's to refuse
		return nil, fmt.Errorf("compositor: size mismatch %dx%d vs %dx%d", w, h, first.W, first.H)
	}
	out := &raster.Framebuffer{W: w, H: h, Color: make([]uint8, len(first.Color)), Depth: append([]float32(nil), first.Depth...)}
	inf := float32(math.Inf(1))
	for i, n := 0, len(out.Depth); i < n; i++ {
		if i+8 <= n && cleared8(out.Depth[i:]) {
			i += 7 // and the loop's one
		} else if d := out.Depth[i]; d < inf {
			out.Color[3*i], out.Color[3*i+1], out.Color[3*i+2] = first.Color[3*i], first.Color[3*i+1], first.Color[3*i+2]
		} else if d != inf {
			out.Depth[i] = inf // NaN never wins a depth test
		}
	}
	for _, p := range parts[1:] {
		if err := DepthComposite(out, p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Tile is a rendered tile carrying its placement within the full image
// and the scene version it was rendered from. Version mismatches between
// adjacent tiles are what produce the tearing artifact in Figure 5.
type Tile struct {
	Rect    image.Rectangle
	FB      *raster.Framebuffer
	Version uint64
}

// AssembleTiles blits tiles into a full framebuffer of the given size.
// Tiles must lie within the image and match their rectangle's size; they
// may overlap (later tiles win), as when a local renderer covered a
// remote tile's region while waiting for it.
func AssembleTiles(w, h int, tiles []Tile) (*raster.Framebuffer, error) {
	out := raster.NewFramebuffer(w, h)
	for i, t := range tiles {
		if t.FB.W != t.Rect.Dx() || t.FB.H != t.Rect.Dy() {
			return nil, fmt.Errorf("compositor: tile %d is %dx%d but rect %v", i, t.FB.W, t.FB.H, t.Rect)
		}
		if err := out.BlitTile(t.FB, t.Rect.Min.X, t.Rect.Min.Y); err != nil {
			return nil, fmt.Errorf("compositor: tile %d: %w", i, err)
		}
	}
	return out, nil
}

// Crop extracts the given region of a framebuffer into a fresh one —
// how a straggler's tile is synthesized from the last good frame when
// the deadline forces assembly without it.
func Crop(fb *raster.Framebuffer, rect image.Rectangle) (*raster.Framebuffer, error) {
	if rect.Min.X < 0 || rect.Min.Y < 0 || rect.Max.X > fb.W || rect.Max.Y > fb.H ||
		rect.Dx() <= 0 || rect.Dy() <= 0 {
		return nil, fmt.Errorf("compositor: crop %v outside %dx%d frame", rect, fb.W, fb.H)
	}
	out := raster.NewFramebuffer(rect.Dx(), rect.Dy())
	for y := 0; y < rect.Dy(); y++ {
		srcRow := (rect.Min.Y+y)*fb.W + rect.Min.X
		dstRow := y * out.W
		copy(out.Color[dstRow*3:(dstRow+out.W)*3], fb.Color[srcRow*3:(srcRow+rect.Dx())*3])
		copy(out.Depth[dstRow:dstRow+out.W], fb.Depth[srcRow:srcRow+rect.Dx()])
	}
	return out, nil
}

// SplitTiles divides a w x h image into a grid of cols x rows tile
// rectangles covering it exactly.
func SplitTiles(w, h, cols, rows int) []image.Rectangle {
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	var out []image.Rectangle
	for r := 0; r < rows; r++ {
		y0 := r * h / rows
		y1 := (r + 1) * h / rows
		for c := 0; c < cols; c++ {
			x0 := c * w / cols
			x1 := (c + 1) * w / cols
			if x1 > x0 && y1 > y0 {
				out = append(out, image.Rect(x0, y0, x1, y1))
			}
		}
	}
	return out
}

// TearReport describes version skew across an assembled frame.
type TearReport struct {
	// MinVersion and MaxVersion are the oldest and newest scene versions
	// among the tiles.
	MinVersion, MaxVersion uint64
	// TornSeams counts adjacent tile pairs rendered from different scene
	// versions — each is a visible seam like Figure 5's galleon mast.
	TornSeams int
}

// Torn reports whether any seam shows version skew.
func (r TearReport) Torn() bool { return r.TornSeams > 0 }

// DetectTearing inspects tile versions and counts adjacent pairs whose
// versions differ. Tiles are adjacent when their rectangles share an edge.
func DetectTearing(tiles []Tile) TearReport {
	rep := TearReport{}
	if len(tiles) == 0 {
		return rep
	}
	rep.MinVersion = tiles[0].Version
	rep.MaxVersion = tiles[0].Version
	for _, t := range tiles[1:] {
		if t.Version < rep.MinVersion {
			rep.MinVersion = t.Version
		}
		if t.Version > rep.MaxVersion {
			rep.MaxVersion = t.Version
		}
	}
	adjacent := func(a, b image.Rectangle) bool {
		// Share a vertical edge with vertical overlap, or a horizontal
		// edge with horizontal overlap.
		vert := (a.Max.X == b.Min.X || b.Max.X == a.Min.X) &&
			a.Min.Y < b.Max.Y && b.Min.Y < a.Max.Y
		horiz := (a.Max.Y == b.Min.Y || b.Max.Y == a.Min.Y) &&
			a.Min.X < b.Max.X && b.Min.X < a.Max.X
		return vert || horiz
	}
	for i := 0; i < len(tiles); i++ {
		for j := i + 1; j < len(tiles); j++ {
			if adjacent(tiles[i].Rect, tiles[j].Rect) && tiles[i].Version != tiles[j].Version {
				rep.TornSeams++
			}
		}
	}
	return rep
}
