package compositor

import (
	"fmt"
	"sort"

	"repro/internal/raster"
)

// Volume blending (§6): "Subset blocks of the volume can be blended,
// even though they contain transparency, by considering their relative
// distance from the view in the order of blending (such as Visapult)."
// Each render service renders its slab of the volume; the layers are
// then ordered back-to-front by slab distance and alpha-blended. Unlike
// the opaque depth compositing in DepthComposite, the order matters —
// TestBlendOrderMatters demonstrates exactly that.

// VolumeLayer is one rendered volume slab.
type VolumeLayer struct {
	// FB holds the slab's rendered pixels; pixels the slab did not touch
	// (depth still +Inf) contribute nothing.
	FB *raster.Framebuffer
	// Opacity in (0, 1] is the slab's transparency when blended.
	Opacity float64
	// ViewDistance is the slab's representative distance from the
	// camera; larger is farther.
	ViewDistance float64
}

// BlendVolume composites volume layers back-to-front over a black
// background into a fresh framebuffer. Layers are sorted by
// ViewDistance descending, so callers may pass them in any order —
// the *information* that makes correct ordering possible (the distance)
// must travel with each slab, which is the paper's point.
func BlendVolume(w, h int, layers []VolumeLayer) (*raster.Framebuffer, error) {
	sorted := append([]VolumeLayer(nil), layers...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].ViewDistance > sorted[j].ViewDistance
	})
	out := raster.NewFramebuffer(w, h)
	// Accumulate in float to avoid quantization across many layers.
	acc := make([]float64, w*h*3)
	for li, layer := range sorted {
		if layer.FB.W != w || layer.FB.H != h {
			return nil, fmt.Errorf("compositor: layer %d is %dx%d, want %dx%d",
				li, layer.FB.W, layer.FB.H, w, h)
		}
		a := layer.Opacity
		if a <= 0 || a > 1 {
			return nil, fmt.Errorf("compositor: layer %d opacity %v outside (0,1]", li, a)
		}
		for p := 0; p < w*h; p++ {
			if !covered(layer.FB, p) {
				continue
			}
			ci := p * 3
			for k := 0; k < 3; k++ {
				src := float64(layer.FB.Color[ci+k]) / 255
				acc[ci+k] = acc[ci+k]*(1-a) + src*a
			}
		}
	}
	for i, v := range acc {
		out.Color[i] = quantize(v)
	}
	// Mark covered pixels in the depth plane so CoveredPixels works.
	for p := 0; p < w*h; p++ {
		ci := p * 3
		if out.Color[ci] != 0 || out.Color[ci+1] != 0 || out.Color[ci+2] != 0 {
			out.Depth[p] = 0
		}
	}
	return out, nil
}

// covered reports whether the layer wrote pixel p.
func covered(fb *raster.Framebuffer, p int) bool {
	return fb.Depth[p] < float32(1e38)
}

func quantize(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return uint8(v*255 + 0.5)
}
