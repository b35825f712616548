package marshal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"repro/internal/raster"
)

// A frame on the wire is its size, a flag and its planes: flag 0 the
// whole colour plane; flag 2 colour and depth of the drawn pixels only,
// as spans. A pixel is cleared when it holds what raster.NewFramebuffer
// left there — depth bits of +Inf and colour 0,0,0, compared as bits, so
// NaN, -0 and colour written without depth are drawn and survive — and a
// run is a maximal row-major stretch of pixels that are not. The runs'
// (start, length) pairs, their colour and their depth follow the flag as
// three length-prefixed slabs. Flag 1, the whole depth plane, is retired.
const (
	frameColour = 0
	frameSpans  = 2

	// maxSpanFramePixels caps what a spans frame, whose length no longer
	// bounds w×h, may have its decoder build. 3840×2160 fits.
	maxSpanFramePixels = 1 << 23
	clearedDepth       = 0x7f800000 // +Inf's bits
)

// nextRun returns the first run [start, end) of pixels that are not
// cleared at or after i; start == end past the last. Cleared stretches go
// by sixteen pixels to a branch, written out because a loop over the
// sixteen costs twice the time. Eight depths nearer than +Inf are eight
// drawn pixels whatever their colour, so covered stretches go by in
// eights; NaN, +Inf and what follows them are settled a pixel at a time.
func nextRun(depth []float32, colour []uint8, i int) (start, end int) {
	x := func(v float32) uint32 { return math.Float32bits(v) ^ clearedDepth }
	for ; i+16 <= len(depth); i += 16 {
		d, c := depth[i:i+16:i+16], colour[3*i:3*i+48:3*i+48]
		if x(d[0])|x(d[1])|x(d[2])|x(d[3])|x(d[4])|x(d[5])|x(d[6])|x(d[7])|
			x(d[8])|x(d[9])|x(d[10])|x(d[11])|x(d[12])|x(d[13])|x(d[14])|x(d[15]) != 0 ||
			binary.LittleEndian.Uint64(c[0:8])|binary.LittleEndian.Uint64(c[8:16])|binary.LittleEndian.Uint64(c[16:24])|
				binary.LittleEndian.Uint64(c[24:32])|binary.LittleEndian.Uint64(c[32:40])|binary.LittleEndian.Uint64(c[40:48]) != 0 {
			break
		}
	}
	for i < len(depth) && x(depth[i]) == 0 && colour[3*i]|colour[3*i+1]|colour[3*i+2] == 0 {
		i++
	}
	const m = math.MaxFloat32
	for start = i; i < len(depth); {
		if d := depth[i:]; len(d) >= 8 && d[0] <= m && d[1] <= m && d[2] <= m && d[3] <= m && d[4] <= m && d[5] <= m && d[6] <= m && d[7] <= m {
			i += 8
		} else if x(d[0]) != 0 || colour[3*i]|colour[3*i+1]|colour[3*i+2] != 0 {
			i++
		} else {
			break
		}
	}
	return start, i
}

// runIndexes pools the run lists a size pass leaves for the encoding pass
// to walk in place of the framebuffer: an encode allocates its output only.
var runIndexes = sync.Pool{New: func() any { return new([]byte) }}

// AppendFrame appends a framebuffer to dst, growing it once by the
// encoding's exact size: the colour plane or, with includeDepth, the
// drawn pixels' colour and depth as spans — what a render service returns
// for compositing, sized by what it drew and not by the viewport.
func AppendFrame(dst []byte, fb *raster.Framebuffer, includeDepth bool) []byte {
	return encodeFrame(dst, nil, fb, includeDepth)
}

// WriteFrame writes AppendFrame's bytes to out.
func WriteFrame(out io.Writer, fb *raster.Framebuffer, includeDepth bool) error {
	return flush(out, encodeFrame(nil, out, fb, includeDepth), nil)
}

// encodeFrame appends fb's encoding to dst or, given out, builds it in
// out's spare room.
func encodeFrame(dst []byte, out io.Writer, fb *raster.Framebuffer, includeDepth bool) []byte {
	size, pixels, index := 4+4+1+4+len(fb.Color), 0, []byte(nil)
	if includeDepth { // the size pass
		runs := runIndexes.Get().(*[]byte)
		defer runIndexes.Put(runs)
		index = (*runs)[:0]
		for start, end := nextRun(fb.Depth, fb.Color, 0); start < end; start, end = nextRun(fb.Depth, fb.Color, end) {
			index = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(index, uint32(start)), uint32(end-start))
			pixels += end - start
		}
		*runs, size = index, 4+4+1+4+len(index)+4+3*pixels+4+4*pixels
	}
	if out != nil {
		dst = room(out, size)
	}
	w := encoder{b: slices.Grow(dst, size)}
	w.u32(uint32(fb.W))
	w.u32(uint32(fb.H))
	if !includeDepth {
		w.u8(frameColour)
		copy(w.slab(len(fb.Color), 1), fb.Color)
		return w.b
	}
	w.u8(frameSpans)
	copy(w.slab(len(index)/8, 8), index)
	colour, depth := w.slab(3*pixels, 1), w.slab(pixels, 4)
	for ; len(index) > 0; index = index[8:] {
		start, n := int(binary.BigEndian.Uint32(index)), int(binary.BigEndian.Uint32(index[4:]))
		copy(colour, fb.Color[3*start:3*(start+n)])
		putF32s(depth, fb.Depth[start:start+n])
		colour, depth = colour[3*n:], depth[4*n:]
	}
	return w.b
}

// ReadFrame decodes everything in reads as one framebuffer.
func ReadFrame(in io.Reader) (*raster.Framebuffer, error) {
	b, err := readAll(in)
	if err != nil {
		return nil, err
	}
	return DecodeFrame(b)
}

// FrameDims reads the size an encoded frame claims, for a caller that
// knows what it asked for to refuse anything else before it is built.
func FrameDims(b []byte) (w, h int, err error) {
	r := decoder{b: b}
	w, h = int(r.u32()), int(r.u32())
	return w, h, r.err
}

// DecodeFrame deserializes a framebuffer from exactly b. A colour frame
// gets a cleared depth plane. A spans frame is checked before anything is
// allocated for it — at most maxSpanFramePixels, three slabs and nothing
// after, every run non-empty, inside w×h and past the end of the one
// before, lengths summing to the pixels sent — then built cleared and
// filled; a run holding a cleared pixel is refused there, so only what
// AppendFrame writes is accepted.
func DecodeFrame(b []byte) (*raster.Framebuffer, error) {
	r := decoder{b: b}
	w, h, flag := int(r.u32()), int(r.u32()), r.u8()
	if r.err != nil {
		return nil, r.err
	}
	if w <= 0 || h <= 0 || w > 1<<14 || h > 1<<14 || (flag == frameSpans && w*h > maxSpanFramePixels) || (flag != frameColour && flag != frameSpans) {
		return nil, fmt.Errorf("marshal: frame %dx%d with flag %d out of range", w, h, flag)
	}
	if flag == frameColour {
		nColor, color := r.slab(1, maxSliceLen, "color plane")
		if r.err == nil && nColor != w*h*3 {
			return nil, fmt.Errorf("marshal: color plane %d bytes, want %d", nColor, w*h*3)
		}
		if err := r.end(); err != nil {
			return nil, err
		}
		fb := raster.NewFramebuffer(w, h)
		copy(fb.Color, color)
		return fb, nil
	}
	nRuns, index := r.slab(8, w*h, "run index")
	nColour, colour := r.slab(1, 3*w*h, "span colours")
	pixels, depth := r.slab(4, w*h, "span depths")
	if err := r.end(); err != nil {
		return nil, err
	}
	next, sum := 0, 0 // the least start the next run may have; pixels so far
	for i := 0; i < nRuns; i++ {
		start, n := int(binary.BigEndian.Uint32(index[8*i:])), int(binary.BigEndian.Uint32(index[8*i+4:]))
		if start < next || n < 1 || n > w*h-start {
			return nil, fmt.Errorf("marshal: run %d [%d,+%d) out of order or outside %dx%d", i, start, n, w, h)
		}
		next, sum = start+n+1, sum+n
	}
	if sum != pixels || nColour != 3*pixels {
		return nil, fmt.Errorf("marshal: runs cover %d pixels, %d depths and %d colour bytes sent", sum, pixels, nColour)
	}
	fb := raster.NewFramebuffer(w, h)
	for ; len(index) > 0; index = index[8:] {
		start, n := int(binary.BigEndian.Uint32(index)), int(binary.BigEndian.Uint32(index[4:]))
		f32s(fb.Depth[start:start+n], depth)
		if s, e := nextRun(fb.Depth[start:start+n], colour, 0); s != 0 || e != n {
			return nil, fmt.Errorf("marshal: run at %d carries a cleared pixel", start)
		}
		copy(fb.Color[3*start:], colour[:3*n])
		colour, depth = colour[3*n:], depth[4*n:]
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
