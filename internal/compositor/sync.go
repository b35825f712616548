package compositor

import (
	"fmt"
	"image"
	"slices"

	"repro/internal/raster"
)

// Frame synchronization (§5.5): the paper streams tiles "best effort",
// which tears when tiles arrive at different scene versions (Figure 5),
// and concludes "we will need to implement synchronisation with complex
// scenes". Synchronizer is that mechanism: it collects tiles per frame
// and only releases a frame once every expected tile carries the same
// scene version. Stale tiles are retained so a best-effort (torn) frame
// can still be assembled when the caller decides it has waited too long.
type Synchronizer struct {
	w, h  int
	rects []image.Rectangle
	// latest holds the newest tile received per region.
	latest map[int]Tile
}

// NewSynchronizer expects one tile per rectangle of a w x h frame, which
// the rectangles must cover exactly: no two overlapping, none outside.
func NewSynchronizer(w, h int, rects []image.Rectangle) (*Synchronizer, error) {
	if len(rects) == 0 {
		return nil, fmt.Errorf("compositor: synchronizer needs at least one tile region")
	}
	area := 0
	for i, r := range rects {
		if r.Min.X < 0 || r.Min.Y < 0 || r.Max.X > w || r.Max.Y > h || r.Dx() <= 0 || r.Dy() <= 0 {
			return nil, fmt.Errorf("compositor: region %v outside %dx%d frame", r, w, h)
		}
		if slices.ContainsFunc(rects[:i], r.Overlaps) {
			return nil, fmt.Errorf("compositor: region %v overlaps another", r)
		}
		area += r.Dx() * r.Dy()
	}
	if area != w*h {
		return nil, fmt.Errorf("compositor: regions cover %d of %d pixels", area, w*h)
	}
	return &Synchronizer{w: w, h: h, rects: rects, latest: map[int]Tile{}}, nil
}

// Submit stores a tile for its region. Tiles older than the stored one
// (lower version) are ignored. Unknown regions are an error.
func (s *Synchronizer) Submit(t Tile) error {
	for i, r := range s.rects {
		if r == t.Rect {
			if have, ok := s.latest[i]; !ok || t.Version >= have.Version {
				s.latest[i] = t
			}
			return nil
		}
	}
	return fmt.Errorf("compositor: tile %v matches no expected region", t.Rect)
}

// Synced reports whether every region holds a tile and all versions
// match.
func (s *Synchronizer) Synced() bool {
	if len(s.latest) != len(s.rects) {
		return false
	}
	var v uint64
	first := true
	for _, t := range s.latest {
		if first {
			v = t.Version
			first = false
		} else if t.Version != v {
			return false
		}
	}
	return true
}

// Pending reports how many regions still miss a tile at the newest
// version seen so far.
func (s *Synchronizer) Pending() int {
	if len(s.latest) < len(s.rects) {
		return len(s.rects) - len(s.latest)
	}
	max := uint64(0)
	for _, t := range s.latest {
		if t.Version > max {
			max = t.Version
		}
	}
	n := 0
	for _, t := range s.latest {
		if t.Version != max {
			n++
		}
	}
	return n
}

// AssembleDegraded builds the frame even when regions are missing: a
// straggling tile degrades to a crop of the fallback frame (typically
// the last good frame) or, with no fallback, to a blank tile — the
// frame ships on time with one stale region instead of freezing the
// whole view behind the slowest renderer. The returned rectangles name
// the degraded regions (nil when every tile arrived); version skew is
// reported like a forced Assemble.
func (s *Synchronizer) AssembleDegraded(fallback *raster.Framebuffer) (*raster.Framebuffer, TearReport, []image.Rectangle, error) {
	if fallback != nil && (fallback.W != s.w || fallback.H != s.h) {
		return nil, TearReport{}, nil, fmt.Errorf("compositor: fallback is %dx%d, frame is %dx%d",
			fallback.W, fallback.H, s.w, s.h)
	}
	var degraded []image.Rectangle
	tiles := make([]Tile, 0, len(s.rects))
	fresh := make([]Tile, 0, len(s.latest)) // tearing among real tiles only
	for i, r := range s.rects {
		if t, ok := s.latest[i]; ok {
			tiles = append(tiles, t)
			fresh = append(fresh, t)
			continue
		}
		degraded = append(degraded, r)
		fill := raster.NewFramebuffer(r.Dx(), r.Dy())
		if fallback != nil {
			var err error
			if fill, err = Crop(fallback, r); err != nil {
				return nil, TearReport{}, nil, err
			}
		}
		tiles = append(tiles, Tile{Rect: r, FB: fill})
	}
	rep := DetectTearing(fresh)
	fb, err := AssembleTiles(s.w, s.h, tiles)
	if err != nil {
		return nil, rep, nil, err
	}
	return fb, rep, degraded, nil
}

// Assemble builds the frame from the stored tiles. When force is false
// it refuses unless Synced; when force is true it assembles best-effort
// (the paper's original behaviour) and the report carries the tearing.
func (s *Synchronizer) Assemble(force bool) (*raster.Framebuffer, TearReport, error) {
	if len(s.latest) != len(s.rects) {
		return nil, TearReport{}, fmt.Errorf("compositor: %d of %d tiles missing",
			len(s.rects)-len(s.latest), len(s.rects))
	}
	if !force && !s.Synced() {
		return nil, TearReport{}, fmt.Errorf("compositor: tiles not synchronized (%d stale)", s.Pending())
	}
	tiles := make([]Tile, 0, len(s.latest))
	for i := range s.rects {
		tiles = append(tiles, s.latest[i])
	}
	rep := DetectTearing(tiles)
	fb, err := AssembleTiles(s.w, s.h, tiles)
	if err != nil {
		return nil, rep, err
	}
	return fb, rep, nil
}
