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
	"slices"

	"repro/internal/marshal"
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
// fresh framebuffer of the given size: CompositeTiles over dense parts.
func CompositeAll(w, h int, parts ...*raster.Framebuffer) (*raster.Framebuffer, error) {
	tiles := make([]Tile, len(parts))
	for i, p := range parts {
		tiles[i] = Tile{Rect: image.Rect(0, 0, p.W, p.H), FB: p}
	}
	return CompositeTiles(w, h, tiles)
}

// CompositeTiles depth-composites whole-frame parts into a fresh
// framebuffer of the given size: each is painted in turn into one cleared
// frame, a pixel only where it is strictly nearer than what is there. A
// pixel no part drew nearer than +Inf stays cleared whatever its colour,
// NaN never wins, and the earlier part wins a tie.
func CompositeTiles(w, h int, parts []Tile) (*raster.Framebuffer, error) {
	out := raster.NewFramebuffer(w, h)
	for _, p := range parts {
		if pw, ph := p.size(); pw != w || ph != h {
			return nil, fmt.Errorf("compositor: size mismatch %dx%d vs %dx%d", w, h, pw, ph)
		}
		if err := p.paint(out, marshal.PaintNearer); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Tile is a rendered tile carrying its placement within the full image
// and the scene version it was rendered from. Version mismatches between
// adjacent tiles are what produce the tearing artifact in Figure 5.
type Tile struct {
	Rect image.Rectangle
	// FB holds the tile's pixels or, when nil, Frame holds them as a render
	// service sent them, passed by marshal.CheckFrame, to be painted
	// straight into the frame they are assembled into.
	FB      *raster.Framebuffer
	Frame   []byte
	Version uint64
}

// size is the tile's width and height as its pixels have them.
func (t Tile) size() (w, h int) {
	if t.FB != nil {
		return t.FB.W, t.FB.H
	}
	w, h, _ = marshal.FrameDims(t.Frame)
	return w, h
}

// paint writes the tile's pixels into dst at its rectangle. A tile that
// is a whole frame is the only kind PaintNearer composites.
func (t Tile) paint(dst *raster.Framebuffer, mode marshal.PaintMode) error {
	switch {
	case t.FB == nil:
		return marshal.PaintFrame(dst, t.Frame, t.Rect.Min.X, t.Rect.Min.Y, mode)
	case mode == marshal.PaintNearer:
		return DepthComposite(dst, t.FB)
	default:
		return dst.BlitTile(t.FB, t.Rect.Min.X, t.Rect.Min.Y)
	}
}

// Dense returns the tile's pixels as a framebuffer: FB, or Frame decoded.
func (t Tile) Dense() (*raster.Framebuffer, error) {
	if t.FB != nil {
		return t.FB, nil
	}
	return marshal.DecodeFrame(t.Frame)
}

// AssembleTiles paints tiles into a full framebuffer of the given size.
// Tiles must lie within the image and match their rectangle's size; they
// may overlap (later tiles win), as when a local renderer covered a
// remote tile's region while waiting for it — a tile as sent names only
// the pixels it drew, so one that overlaps an earlier tile has its
// rectangle cleared first.
func AssembleTiles(w, h int, tiles []Tile) (*raster.Framebuffer, error) {
	out := raster.NewFramebuffer(w, h)
	for i, t := range tiles {
		if tw, th := t.size(); tw != t.Rect.Dx() || th != t.Rect.Dy() {
			return nil, fmt.Errorf("compositor: tile %d is %dx%d but rect %v", i, tw, th, t.Rect)
		}
		var err error
		if t.FB == nil && slices.ContainsFunc(tiles[:i], func(o Tile) bool { return o.Rect.Overlaps(t.Rect) }) {
			err = out.BlitTile(raster.NewFramebuffer(t.Rect.Dx(), t.Rect.Dy()), t.Rect.Min.X, t.Rect.Min.Y)
		}
		if err == nil {
			err = t.paint(out, marshal.PaintAll)
		}
		if err != nil {
			return nil, fmt.Errorf("compositor: tile %d: %w", i, err)
		}
	}
	return out, nil
}

// Crop extracts the given region of a framebuffer into a fresh one —
// how a straggler's tile is synthesized from the last good frame when
// the deadline forces assembly without it.
func Crop(fb *raster.Framebuffer, rect image.Rectangle) (*raster.Framebuffer, error) {
	return fb.SubTile(rect)
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
