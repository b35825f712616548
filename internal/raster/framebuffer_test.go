package raster

import (
	"bytes"
	"image"
	"math"
	"testing"
)

func TestFramebufferClearAndAccess(t *testing.T) {
	fb := NewFramebuffer(4, 3)
	fb.Clear(10, 20, 30)
	r, g, b := fb.At(3, 2)
	if r != 10 || g != 20 || b != 30 {
		t.Errorf("cleared color: %d %d %d", r, g, b)
	}
	if !math.IsInf(float64(fb.DepthAt(0, 0)), 1) {
		t.Errorf("cleared depth: %v", fb.DepthAt(0, 0))
	}
	fb.Set(1, 1, 200, 100, 50)
	r, g, b = fb.At(1, 1)
	if r != 200 || g != 100 || b != 50 {
		t.Errorf("set color: %d %d %d", r, g, b)
	}
}

func TestFramebufferPlotDepthTest(t *testing.T) {
	fb := NewFramebuffer(2, 2)
	fb.Plot(0, 0, 0.5, 1, 1, 1)
	fb.Plot(0, 0, 0.7, 2, 2, 2) // behind: rejected
	if r, _, _ := fb.At(0, 0); r != 1 {
		t.Errorf("farther plot overwrote nearer: %d", r)
	}
	fb.Plot(0, 0, 0.3, 3, 3, 3) // in front: accepted
	if r, _, _ := fb.At(0, 0); r != 3 {
		t.Errorf("nearer plot rejected: %d", r)
	}
	if got := fb.DepthAt(0, 0); got != 0.3 {
		t.Errorf("depth: %v", got)
	}
	// Out-of-bounds plots are ignored.
	fb.Plot(-1, 0, 0, 9, 9, 9)
	fb.Plot(0, 5, 0, 9, 9, 9)
	fb.Plot(2, 0, 0, 9, 9, 9)
}

func TestFramebufferSizeAndCoverage(t *testing.T) {
	fb := NewFramebuffer(200, 200)
	if fb.SizeBytes() != 200*200*3 {
		t.Errorf("SizeBytes = %d, want 120000", fb.SizeBytes())
	}
	if fb.CoveredPixels() != 0 {
		t.Errorf("fresh coverage: %d", fb.CoveredPixels())
	}
	fb.Plot(5, 5, 0, 1, 1, 1)
	fb.Plot(6, 5, 0, 1, 1, 1)
	if fb.CoveredPixels() != 2 {
		t.Errorf("coverage: %d", fb.CoveredPixels())
	}
}

func TestFramebufferToImage(t *testing.T) {
	fb := NewFramebuffer(2, 2)
	fb.Set(1, 0, 255, 0, 0)
	img := fb.ToImage()
	r, g, b, a := img.At(1, 0).RGBA()
	if r>>8 != 255 || g != 0 || b != 0 || a>>8 != 255 {
		t.Errorf("image pixel: %d %d %d %d", r>>8, g>>8, b>>8, a>>8)
	}
}

func TestFramebufferClone(t *testing.T) {
	fb := NewFramebuffer(2, 2)
	fb.Plot(0, 0, 0.1, 7, 8, 9)
	c := fb.Clone()
	c.Set(0, 0, 1, 1, 1)
	if r, _, _ := fb.At(0, 0); r != 7 {
		t.Error("clone shares color storage")
	}
}

func TestSubTileAndBlit(t *testing.T) {
	fb := NewFramebuffer(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			fb.Plot(x, y, float32(x)/10, uint8(x), uint8(y), 0)
		}
	}
	tile, err := fb.SubTile(image.Rect(2, 3, 6, 7))
	if err != nil {
		t.Fatal(err)
	}
	if tile.W != 4 || tile.H != 4 {
		t.Fatalf("tile size %dx%d", tile.W, tile.H)
	}
	r, g, _ := tile.At(0, 0)
	if r != 2 || g != 3 {
		t.Errorf("tile origin pixel: %d %d", r, g)
	}
	if tile.DepthAt(1, 0) != 0.3 {
		t.Errorf("tile depth: %v", tile.DepthAt(1, 0))
	}

	dst := NewFramebuffer(8, 8)
	if err := dst.BlitTile(tile, 2, 3); err != nil {
		t.Fatal(err)
	}
	r, g, _ = dst.At(3, 4)
	if r != 3 || g != 4 {
		t.Errorf("blitted pixel: %d %d", r, g)
	}
	if dst.DepthAt(3, 4) != fb.DepthAt(3, 4) {
		t.Error("blit lost depth")
	}
}

func TestSubTileBounds(t *testing.T) {
	fb := NewFramebuffer(4, 4)
	for _, rect := range []image.Rectangle{
		image.Rect(-1, 0, 2, 2),
		image.Rect(0, 0, 5, 2),
		image.Rect(2, 2, 2, 3), // zero width
	} {
		if _, err := fb.SubTile(rect); err == nil {
			t.Errorf("rect %v accepted", rect)
		}
	}
	tile := NewFramebuffer(3, 3)
	if err := fb.BlitTile(tile, 2, 2); err == nil {
		t.Error("out-of-range blit accepted")
	}
}

// clearByLoops is Clear as it was before it filled by doubling copies:
// the oracle for TestClearMatchesThePerElementLoops.
func clearByLoops(fb *Framebuffer, r, g, b uint8) {
	for i := 0; i < len(fb.Color); i += 3 {
		fb.Color[i], fb.Color[i+1], fb.Color[i+2] = r, g, b
	}
	for i := range fb.Depth {
		fb.Depth[i] = float32(math.Inf(1))
	}
}

// TestClearMatchesThePerElementLoops: NewFramebuffer and Clear leave
// exactly what the per-element loops left, at sizes on both sides of
// every doubling and for colours whose three bytes differ.
func TestClearMatchesThePerElementLoops(t *testing.T) {
	same := func(a, b *Framebuffer) bool {
		for i := range a.Depth {
			if math.Float32bits(a.Depth[i]) != math.Float32bits(b.Depth[i]) {
				return false
			}
		}
		return bytes.Equal(a.Color, b.Color) && len(a.Depth) == len(b.Depth)
	}
	for _, size := range [][2]int{{0, 0}, {1, 1}, {3, 5}, {640, 480}} {
		w, h := size[0], size[1]
		want := &Framebuffer{W: w, H: h, Color: make([]uint8, w*h*3), Depth: make([]float32, w*h)}
		clearByLoops(want, 0, 0, 0)
		got := NewFramebuffer(w, h)
		if got.W != w || got.H != h || !same(got, want) {
			t.Errorf("NewFramebuffer(%d, %d) is not a cleared buffer", w, h)
		}
		for _, c := range [][3]uint8{{0, 0, 0}, {10, 20, 30}, {255, 0, 1}} {
			for i := range got.Depth { // something to clear
				got.Depth[i], got.Color[3*i+1] = float32(i), uint8(i)
			}
			got.Clear(c[0], c[1], c[2])
			clearByLoops(want, c[0], c[1], c[2])
			if !same(got, want) {
				t.Errorf("%dx%d Clear(%v) differs from the per-element loops", w, h, c)
			}
		}
	}
}

var sinkFB *Framebuffer

// BenchmarkNewFramebuffer is what every tile, subset buffer, decoded
// frame and composite pays before a pixel is drawn. Recorded in
// EXPERIMENTS.md, gated nowhere.
func BenchmarkNewFramebuffer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkFB = NewFramebuffer(640, 480)
	}
}
