package compositor

import (
	"image"
	"testing"

	"repro/internal/raster"
)

// layerFB returns a framebuffer with a filled square of one color.
func layerFB(w, h int, rect image.Rectangle, r, g, b uint8) *raster.Framebuffer {
	fb := raster.NewFramebuffer(w, h)
	for y := rect.Min.Y; y < rect.Max.Y; y++ {
		for x := rect.Min.X; x < rect.Max.X; x++ {
			fb.Plot(x, y, 0.5, r, g, b)
		}
	}
	return fb
}

func TestBlendVolumeSingleLayer(t *testing.T) {
	l := VolumeLayer{FB: layerFB(8, 8, image.Rect(0, 0, 8, 8), 200, 100, 0), Opacity: 1, ViewDistance: 1}
	out, err := BlendVolume(8, 8, []VolumeLayer{l})
	if err != nil {
		t.Fatal(err)
	}
	r, g, b := out.At(3, 3)
	if r != 200 || g != 100 || b != 0 {
		t.Errorf("opaque single layer: %d %d %d", r, g, b)
	}
	if out.CoveredPixels() != 64 {
		t.Errorf("coverage: %d", out.CoveredPixels())
	}
}

func TestBlendVolumeTransparency(t *testing.T) {
	back := VolumeLayer{FB: layerFB(4, 4, image.Rect(0, 0, 4, 4), 255, 0, 0), Opacity: 1, ViewDistance: 10}
	front := VolumeLayer{FB: layerFB(4, 4, image.Rect(0, 0, 4, 4), 0, 0, 255), Opacity: 0.5, ViewDistance: 1}
	out, err := BlendVolume(4, 4, []VolumeLayer{front, back}) // any order in
	if err != nil {
		t.Fatal(err)
	}
	r, _, b := out.At(1, 1)
	// Half red shows through the half-opaque blue front.
	if r < 100 || r > 155 || b < 100 || b > 155 {
		t.Errorf("blend: r=%d b=%d, want ~127 each", r, b)
	}
}

func TestBlendOrderMatters(t *testing.T) {
	red := VolumeLayer{FB: layerFB(4, 4, image.Rect(0, 0, 4, 4), 255, 0, 0), Opacity: 0.6, ViewDistance: 10}
	blue := VolumeLayer{FB: layerFB(4, 4, image.Rect(0, 0, 4, 4), 0, 0, 255), Opacity: 0.6, ViewDistance: 1}

	correct, err := BlendVolume(4, 4, []VolumeLayer{blue, red})
	if err != nil {
		t.Fatal(err)
	}
	// Force the wrong order: the same slabs with their distances swapped.
	red.ViewDistance, blue.ViewDistance = blue.ViewDistance, red.ViewDistance
	wrong, err := BlendVolume(4, 4, []VolumeLayer{blue, red})
	if err != nil {
		t.Fatal(err)
	}
	cr, _, _ := correct.At(0, 0)
	wr, _, _ := wrong.At(0, 0)
	if cr == wr {
		t.Error("ordering had no effect — blending is not order-dependent")
	}
	// Correct order: the near blue slab dominates; wrong order: red does.
	_, _, cb := correct.At(0, 0)
	_, _, wb := wrong.At(0, 0)
	if cb <= cr {
		t.Errorf("correct order should favor near blue: r=%d b=%d", cr, cb)
	}
	if wr <= wb {
		t.Errorf("wrong order should favor far red: r=%d b=%d", wr, wb)
	}
}

func TestBlendVolumeUncoveredPixels(t *testing.T) {
	// A layer covering only half the frame leaves the rest untouched.
	half := VolumeLayer{FB: layerFB(4, 4, image.Rect(0, 0, 2, 4), 0, 255, 0), Opacity: 1, ViewDistance: 1}
	out, err := BlendVolume(4, 4, []VolumeLayer{half})
	if err != nil {
		t.Fatal(err)
	}
	if _, g, _ := out.At(0, 0); g != 255 {
		t.Error("covered pixel empty")
	}
	if r, g, b := out.At(3, 0); r != 0 || g != 0 || b != 0 {
		t.Error("uncovered pixel written")
	}
}

func TestBlendVolumeErrors(t *testing.T) {
	good := VolumeLayer{FB: raster.NewFramebuffer(4, 4), Opacity: 1}
	bad := VolumeLayer{FB: raster.NewFramebuffer(3, 4), Opacity: 1}
	if _, err := BlendVolume(4, 4, []VolumeLayer{good, bad}); err == nil {
		t.Error("size mismatch accepted")
	}
	zero := VolumeLayer{FB: raster.NewFramebuffer(4, 4), Opacity: 0}
	if _, err := BlendVolume(4, 4, []VolumeLayer{zero}); err == nil {
		t.Error("zero opacity accepted")
	}
	over := VolumeLayer{FB: raster.NewFramebuffer(4, 4), Opacity: 1.5}
	if _, err := BlendVolume(4, 4, []VolumeLayer{over}); err == nil {
		t.Error("opacity > 1 accepted")
	}
}

// --- Synchronizer ---

func syncSetup(t *testing.T) (*Synchronizer, []image.Rectangle) {
	t.Helper()
	rects := SplitTiles(8, 8, 2, 1)
	s, err := NewSynchronizer(8, 8, rects)
	if err != nil {
		t.Fatal(err)
	}
	return s, rects
}

func tileAt(rect image.Rectangle, version uint64, shade uint8) Tile {
	fb := raster.NewFramebuffer(rect.Dx(), rect.Dy())
	for y := 0; y < fb.H; y++ {
		for x := 0; x < fb.W; x++ {
			fb.Plot(x, y, 0, shade, shade, shade)
		}
	}
	return Tile{Rect: rect, FB: fb, Version: version}
}

func TestSynchronizerReleasesOnlyWhenSynced(t *testing.T) {
	s, rects := syncSetup(t)
	if s.Synced() {
		t.Error("empty synchronizer synced")
	}
	if _, _, err := s.Assemble(false); err == nil {
		t.Error("assembled with missing tiles")
	}

	if err := s.Submit(tileAt(rects[0], 5, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(tileAt(rects[1], 4, 20)); err != nil {
		t.Fatal(err)
	}
	if s.Synced() {
		t.Error("version-skewed tiles reported synced")
	}
	if s.Pending() != 1 {
		t.Errorf("pending: %d", s.Pending())
	}
	if _, _, err := s.Assemble(false); err == nil {
		t.Error("assembled unsynced without force")
	}

	// The stale region catches up.
	if err := s.Submit(tileAt(rects[1], 5, 20)); err != nil {
		t.Fatal(err)
	}
	if !s.Synced() {
		t.Error("matching versions not synced")
	}
	fb, rep, err := s.Assemble(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn() {
		t.Error("synced frame torn")
	}
	if r, _, _ := fb.At(0, 0); r != 10 {
		t.Errorf("left tile pixel: %d", r)
	}
	if r, _, _ := fb.At(7, 0); r != 20 {
		t.Errorf("right tile pixel: %d", r)
	}
}

func TestSynchronizerForceAssemblesTorn(t *testing.T) {
	s, rects := syncSetup(t)
	s.Submit(tileAt(rects[0], 7, 1))
	s.Submit(tileAt(rects[1], 6, 2))
	fb, rep, err := s.Assemble(true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Torn() {
		t.Error("forced assembly of skewed tiles not reported torn")
	}
	if fb == nil {
		t.Fatal("no best-effort frame")
	}
}

func TestSynchronizerIgnoresStaleSubmissions(t *testing.T) {
	s, rects := syncSetup(t)
	s.Submit(tileAt(rects[0], 9, 90))
	// An older tile for the same region must not regress it.
	s.Submit(tileAt(rects[0], 3, 30))
	s.Submit(tileAt(rects[1], 9, 91))
	if !s.Synced() {
		t.Fatal("stale submission regressed the region")
	}
	fb, _, err := s.Assemble(false)
	if err != nil {
		t.Fatal(err)
	}
	if r, _, _ := fb.At(0, 0); r != 90 {
		t.Errorf("regressed pixel: %d", r)
	}
}

func TestSynchronizerValidation(t *testing.T) {
	if _, err := NewSynchronizer(8, 8, nil); err == nil {
		t.Error("no regions accepted")
	}
	// Gap in coverage.
	if _, err := NewSynchronizer(8, 8, []image.Rectangle{image.Rect(0, 0, 4, 8)}); err == nil {
		t.Error("partial coverage accepted")
	}
	// Overlapping regions whose areas sum to the frame's leave a gap
	// (rows 8–9 here) that no tile would fill and no report would name.
	if _, err := NewSynchronizer(10, 10, []image.Rectangle{image.Rect(0, 0, 10, 5), image.Rect(0, 3, 10, 8)}); err == nil {
		t.Error("overlapping regions with a gap accepted")
	}
	// Region outside the frame.
	if _, err := NewSynchronizer(8, 8, []image.Rectangle{image.Rect(0, 0, 9, 8)}); err == nil {
		t.Error("oversized region accepted")
	}
	s, _ := syncSetup(t)
	if err := s.Submit(tileAt(image.Rect(1, 1, 3, 3), 1, 0)); err == nil {
		t.Error("unknown region accepted")
	}
}
