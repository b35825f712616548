// Package raster is RAVE's software renderer — the stand-in for the
// paper's Java3D hardware pipeline. It provides z-buffered, Gouraud-shaded
// triangle rasterization with backface culling and near-plane clipping,
// point-cloud splatting and voxel rendering, tile (scissor) rendering for
// framebuffer distribution, and optional parallel rasterization across
// scanline bands.
package raster

import (
	"fmt"
	"image"
	"image/color"
	"math"
)

// Framebuffer holds an RGB color buffer and a float32 depth buffer. Depth
// follows NDC convention: -1 is the near plane, +1 the far plane, and
// cleared pixels hold +Inf. The paper's render services ship exactly this
// pair (frame and depth buffer) between services for compositing.
type Framebuffer struct {
	W, H  int
	Color []uint8   // RGB, 3 bytes per pixel, row-major
	Depth []float32 // one float per pixel
}

// NewFramebuffer allocates a cleared framebuffer: black, which is how make
// hands the colour plane over, and +Inf depth.
func NewFramebuffer(w, h int) *Framebuffer {
	fb := &Framebuffer{
		W:     w,
		H:     h,
		Color: make([]uint8, w*h*3),
		Depth: make([]float32, w*h),
	}
	fill(fb.Depth, float32(math.Inf(1)))
	return fb
}

// Clear fills the color buffer with the given RGB background and resets
// depth to +Inf.
func (fb *Framebuffer) Clear(r, g, b uint8) {
	fill(fb.Color, r, g, b)
	fill(fb.Depth, float32(math.Inf(1)))
}

// fill repeats pattern over s: once, then by copying what is filled onto
// what is not, doubling it, so any pattern goes down at copy speed.
func fill[T any](s []T, pattern ...T) {
	for n := copy(s, pattern); 0 < n && n < len(s); {
		n += copy(s[n:], s[:n])
	}
}

// At returns the color at pixel (x, y).
func (fb *Framebuffer) At(x, y int) (r, g, b uint8) {
	i := (y*fb.W + x) * 3
	return fb.Color[i], fb.Color[i+1], fb.Color[i+2]
}

// Set writes the color at pixel (x, y) without a depth test.
func (fb *Framebuffer) Set(x, y int, r, g, b uint8) {
	i := (y*fb.W + x) * 3
	fb.Color[i] = r
	fb.Color[i+1] = g
	fb.Color[i+2] = b
}

// DepthAt returns the depth at pixel (x, y).
func (fb *Framebuffer) DepthAt(x, y int) float32 {
	return fb.Depth[y*fb.W+x]
}

// Plot writes color and depth at (x, y) if z passes the depth test.
func (fb *Framebuffer) Plot(x, y int, z float32, r, g, b uint8) {
	if x < 0 || x >= fb.W || y < 0 || y >= fb.H {
		return
	}
	di := y*fb.W + x
	if z >= fb.Depth[di] {
		return
	}
	fb.Depth[di] = z
	ci := di * 3
	fb.Color[ci] = r
	fb.Color[ci+1] = g
	fb.Color[ci+2] = b
}

// SizeBytes returns the byte size of the color plane — what a thin client
// downloads per frame (the paper's 120 kB for 200x200x24bpp).
func (fb *Framebuffer) SizeBytes() int { return len(fb.Color) }

// ToImage converts the color buffer to an image.RGBA for PNG export.
func (fb *Framebuffer) ToImage() *image.RGBA {
	img := image.NewRGBA(image.Rect(0, 0, fb.W, fb.H))
	for y := 0; y < fb.H; y++ {
		for x := 0; x < fb.W; x++ {
			r, g, b := fb.At(x, y)
			img.SetRGBA(x, y, color.RGBA{R: r, G: g, B: b, A: 255})
		}
	}
	return img
}

// Clone returns a deep copy of the framebuffer.
func (fb *Framebuffer) Clone() *Framebuffer {
	return &Framebuffer{
		W:     fb.W,
		H:     fb.H,
		Color: append([]uint8(nil), fb.Color...),
		Depth: append([]float32(nil), fb.Depth...),
	}
}

// SubTile copies the rectangle rect (in this framebuffer's coordinates)
// into a new framebuffer of rect's size, including depth.
func (fb *Framebuffer) SubTile(rect image.Rectangle) (*Framebuffer, error) {
	if rect.Min.X < 0 || rect.Min.Y < 0 || rect.Max.X > fb.W || rect.Max.Y > fb.H ||
		rect.Dx() <= 0 || rect.Dy() <= 0 {
		return nil, fmt.Errorf("raster: tile %v outside %dx%d framebuffer", rect, fb.W, fb.H)
	}
	out := NewFramebuffer(rect.Dx(), rect.Dy())
	for y := 0; y < out.H; y++ {
		srcRow := ((rect.Min.Y+y)*fb.W + rect.Min.X)
		copy(out.Color[y*out.W*3:(y+1)*out.W*3], fb.Color[srcRow*3:(srcRow+out.W)*3])
		copy(out.Depth[y*out.W:(y+1)*out.W], fb.Depth[srcRow:srcRow+out.W])
	}
	return out, nil
}

// BlitTile copies tile into this framebuffer with its top-left corner at
// (x0, y0), overwriting color and depth (no depth test — tiles own their
// region under framebuffer distribution).
func (fb *Framebuffer) BlitTile(tile *Framebuffer, x0, y0 int) error {
	if x0 < 0 || y0 < 0 || x0+tile.W > fb.W || y0+tile.H > fb.H {
		return fmt.Errorf("raster: blit of %dx%d tile at (%d,%d) outside %dx%d framebuffer",
			tile.W, tile.H, x0, y0, fb.W, fb.H)
	}
	for y := 0; y < tile.H; y++ {
		dstRow := (y0+y)*fb.W + x0
		copy(fb.Color[dstRow*3:(dstRow+tile.W)*3], tile.Color[y*tile.W*3:(y+1)*tile.W*3])
		copy(fb.Depth[dstRow:dstRow+tile.W], tile.Depth[y*tile.W:(y+1)*tile.W])
	}
	return nil
}

// CoveredPixels counts pixels whose depth was written (i.e. not +Inf).
func (fb *Framebuffer) CoveredPixels() int {
	n := 0
	inf := float32(math.Inf(1))
	for _, d := range fb.Depth {
		if d < inf {
			n++
		}
	}
	return n
}
