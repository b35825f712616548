package marshal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/raster"
)

// AppendFrame appends a framebuffer (color, and depth when asked) to dst,
// growing it once by the frame's exact size — what one render service
// sends another for depth compositing under dataset distribution.
func AppendFrame(dst []byte, fb *raster.Framebuffer, includeDepth bool) []byte {
	w := encoder{b: slices.Grow(dst, frameSize(fb, includeDepth))}
	w.u32(uint32(fb.W))
	w.u32(uint32(fb.H))
	if includeDepth {
		w.u8(1)
	} else {
		w.u8(0)
	}
	copy(w.slab(len(fb.Color), 1), fb.Color)
	if includeDepth {
		w.f32Slice(fb.Depth)
	}
	return w.b
}

// frameSize is the length of fb's encoding.
func frameSize(fb *raster.Framebuffer, includeDepth bool) int {
	size := 4 + 4 + 1 + 4 + len(fb.Color)
	if includeDepth {
		size += 4 + 4*len(fb.Depth)
	}
	return size
}

// WriteFrame writes AppendFrame's bytes to out.
func WriteFrame(out io.Writer, fb *raster.Framebuffer, includeDepth bool) error {
	return flush(out, AppendFrame(room(out, frameSize(fb, includeDepth)), fb, includeDepth), nil)
}

// ReadFrame decodes everything in reads as one framebuffer.
func ReadFrame(in io.Reader) (*raster.Framebuffer, error) {
	b, err := readAll(in)
	if err != nil {
		return nil, err
	}
	return DecodeFrame(b)
}

// DecodeFrame deserializes a framebuffer from exactly b, each plane
// converted straight into the framebuffer's own. Frames without depth
// get a cleared (all +Inf) depth plane.
func DecodeFrame(b []byte) (*raster.Framebuffer, error) {
	r := decoder{b: b}
	w := int(r.u32())
	h := int(r.u32())
	depthFlag := r.u8()
	if r.err != nil {
		return nil, r.err
	}
	if w <= 0 || h <= 0 || w > 1<<14 || h > 1<<14 {
		return nil, fmt.Errorf("marshal: frame dimensions %dx%d out of range", w, h)
	}
	if depthFlag > 1 {
		return nil, fmt.Errorf("marshal: frame depth flag %d", depthFlag)
	}
	nColor, color := r.slab(1, maxSliceLen, "color plane")
	if r.err == nil && nColor != w*h*3 {
		return nil, fmt.Errorf("marshal: color plane %d bytes, want %d", nColor, w*h*3)
	}
	var depth []byte
	if depthFlag == 1 {
		var nDepth int
		nDepth, depth = r.slab(4, maxSliceLen/4, "depth plane")
		if r.err == nil && nDepth != w*h {
			return nil, fmt.Errorf("marshal: depth plane %d floats, want %d", nDepth, w*h)
		}
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	fb := &raster.Framebuffer{W: w, H: h, Color: make([]uint8, len(color)), Depth: make([]float32, w*h)}
	copy(fb.Color, color)
	if depthFlag == 1 {
		f32s(fb.Depth, depth)
	} else {
		inf := float32(math.Inf(1))
		for i := range fb.Depth {
			fb.Depth[i] = inf
		}
	}
	return fb, nil
}

// EncodeFrameDirect converts the color plane to wire bytes with a single
// bulk copy — the C/C++ thin client's "data pointer is directly cast to
// the appropriate image format, involving minimal overhead" (§5.1).
func EncodeFrameDirect(fb *raster.Framebuffer) []byte {
	out := make([]byte, 8+len(fb.Color))
	binary.BigEndian.PutUint32(out, uint32(fb.W))
	binary.BigEndian.PutUint32(out[4:], uint32(fb.H))
	copy(out[8:], fb.Color)
	return out
}

// EncodeFramePerPixel produces the identical bytes, but the way the
// paper's J2ME client had to: "sending each pixel one at a time,
// converting to a series of bytes" (§5.1) — each channel is boxed and
// routed through the generic binary encoder. The paper measured over two
// minutes per frame this way versus 0.2 s for the direct path;
// BenchmarkPixelMarshal* reproduces the gap's shape.
func EncodeFramePerPixel(fb *raster.Framebuffer) []byte {
	var buf bytes.Buffer
	buf.Grow(8 + len(fb.Color))
	_ = binary.Write(&buf, binary.BigEndian, uint32(fb.W))
	_ = binary.Write(&buf, binary.BigEndian, uint32(fb.H))
	for y := 0; y < fb.H; y++ {
		for x := 0; x < fb.W; x++ {
			r, g, b := fb.At(x, y)
			// One boxed, reflective write per channel: the per-pixel
			// conversion cost the PDA could not afford.
			_ = binary.Write(&buf, binary.BigEndian, r)
			_ = binary.Write(&buf, binary.BigEndian, g)
			_ = binary.Write(&buf, binary.BigEndian, b)
		}
	}
	return buf.Bytes()
}

// DecodeFrameColor reverses EncodeFrameDirect/EncodeFramePerPixel.
func DecodeFrameColor(data []byte) (*raster.Framebuffer, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("marshal: frame header short (%d bytes)", len(data))
	}
	w := int(binary.BigEndian.Uint32(data))
	h := int(binary.BigEndian.Uint32(data[4:]))
	if w <= 0 || h <= 0 || w > 1<<14 || h > 1<<14 {
		return nil, fmt.Errorf("marshal: frame dimensions %dx%d out of range", w, h)
	}
	if len(data) != 8+w*h*3 {
		return nil, fmt.Errorf("marshal: frame body %d bytes, want %d", len(data)-8, w*h*3)
	}
	fb := raster.NewFramebuffer(w, h)
	copy(fb.Color, data[8:])
	return fb, nil
}
