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

// FrameDims reads the size an encoded frame claims, without checking it.
func FrameDims(b []byte) (w, h int, err error) {
	r := decoder{b: b}
	w, h = int(r.u32()), int(r.u32())
	return w, h, r.err
}

// frameParts is a frame's size and its slabs, still encoded: the colour
// plane (dense), or the run index, colours and depths of its spans.
type frameParts struct {
	w, h, runs, pixels   int
	dense                bool
	index, colour, depth []byte
}

// splitFrame reads exactly one frame's header and slabs, refusing a size
// beyond 16384 a side (maxSpanFramePixels in all for spans), an unknown
// flag, a colour plane of the wrong size and anything after the slabs.
func splitFrame(b []byte) (f frameParts, err error) {
	r := decoder{b: b}
	f.w, f.h = int(r.u32()), int(r.u32())
	flag := r.u8()
	if r.err != nil {
		return f, r.err
	}
	if f.w <= 0 || f.h <= 0 || f.w > 1<<14 || f.h > 1<<14 || (flag == frameSpans && f.w*f.h > maxSpanFramePixels) || (flag != frameColour && flag != frameSpans) {
		return f, fmt.Errorf("marshal: frame %dx%d with flag %d out of range", f.w, f.h, flag)
	}
	if f.dense = flag == frameColour; f.dense {
		var n int
		if n, f.colour = r.slab(1, maxSliceLen, "color plane"); r.err == nil && n != f.w*f.h*3 {
			return f, fmt.Errorf("marshal: color plane %d bytes, want %d", n, f.w*f.h*3)
		}
		return f, r.end()
	}
	f.runs, f.index = r.slab(8, f.w*f.h, "run index")
	_, f.colour = r.slab(1, 3*f.w*f.h, "span colours")
	f.pixels, f.depth = r.slab(4, f.w*f.h, "span depths")
	return f, r.end()
}

// CheckFrame checks, allocating nothing, that b is one frame as
// AppendFrame writes them and returns its size: beyond splitFrame's
// checks, every run non-empty, inside w×h and past the end of the one
// before, lengths summing to the pixels sent, and no pixel sent cleared
// (read as depth bits and colour off the wire), so that a run is exactly
// what nextRun finds.
func CheckFrame(b []byte) (w, h int, err error) {
	f, err := splitFrame(b)
	if err != nil || f.dense {
		return f.w, f.h, err
	}
	next, sum := 0, 0 // the least start the next run may have; pixels so far
	for i := 0; i < f.runs; i++ {
		start, n := int(binary.BigEndian.Uint32(f.index[8*i:])), int(binary.BigEndian.Uint32(f.index[8*i+4:]))
		if start < next || n < 1 || n > f.w*f.h-start {
			return 0, 0, fmt.Errorf("marshal: run %d [%d,+%d) out of order or outside %dx%d", i, start, n, f.w, f.h)
		}
		next, sum = start+n+1, sum+n
	}
	if sum != f.pixels || len(f.colour) != 3*f.pixels {
		return 0, 0, fmt.Errorf("marshal: runs cover %d pixels, %d depths and %d colour bytes sent", sum, f.pixels, len(f.colour))
	}
	for i, c := 0, f.colour; i < f.pixels; i++ {
		if binary.BigEndian.Uint32(f.depth[4*i:]) == clearedDepth && c[3*i]|c[3*i+1]|c[3*i+2] == 0 {
			return 0, 0, fmt.Errorf("marshal: pixel %d sent is cleared", i)
		}
	}
	return f.w, f.h, nil
}

// PaintMode is what PaintFrame writes of each pixel a frame carries.
type PaintMode uint8

const (
	PaintAll     PaintMode = iota // the pixel: a tile into its cleared region
	PaintNearer                   // the pixel if its depth is strictly less, as DepthComposite
	PaintCleared                  // a cleared pixel: a drawn buffer back to a fresh one
)

// PaintFrame writes a frame CheckFrame accepted into dst with its
// top-left corner at (x0, y0). A spans frame touches only its runs' pixels,
// a row at a time where a run wraps, so painting costs what was drawn,
// not the viewport; a colour frame is one run over every pixel at depth
// +Inf. Painting PaintAll into a cleared buffer decodes the frame.
func PaintFrame(dst *raster.Framebuffer, b []byte, x0, y0 int, mode PaintMode) error {
	f, err := splitFrame(b)
	if err != nil {
		return err
	}
	if x0 < 0 || y0 < 0 || x0+f.w > dst.W || y0+f.h > dst.H {
		return fmt.Errorf("marshal: %dx%d frame at (%d,%d) outside %dx%d framebuffer", f.w, f.h, x0, y0, dst.W, dst.H)
	}
	index, colour, depth := f.index, f.colour, f.depth
	if f.dense {
		index = binary.BigEndian.AppendUint32(make([]byte, 4, 8), uint32(f.w*f.h))
	}
	for ; len(index) > 0 && !(f.dense && mode == PaintNearer); index = index[8:] { // +Inf is never nearer
		for p, n := int(binary.BigEndian.Uint32(index)), int(binary.BigEndian.Uint32(index[4:])); n > 0; {
			seg := min(n, f.w-p%f.w)
			i := (y0+p/f.w)*dst.W + x0 + p%f.w
			c, d := dst.Color[3*i:3*(i+seg)], dst.Depth[i:i+seg]
			switch {
			case mode == PaintNearer:
				for k := range d {
					if z := math.Float32frombits(binary.BigEndian.Uint32(depth[4*k:])); z < d[k] {
						d[k] = z
						c[3*k], c[3*k+1], c[3*k+2] = colour[3*k], colour[3*k+1], colour[3*k+2]
					}
				}
			case mode == PaintAll && !f.dense:
				copy(c, colour)
				f32s(d, depth)
			default: // cleared depth, under the colour plane or cleared colour
				if clear(c); mode == PaintAll {
					copy(c, colour)
				}
				for k := range d {
					d[k] = float32(math.Inf(1))
				}
			}
			p, n, colour = p+seg, n-seg, colour[3*seg:]
			if !f.dense {
				depth = depth[4*seg:]
			}
		}
	}
	return nil
}

// DecodeFrame deserializes a framebuffer from exactly b: CheckFrame
// accepts it before anything is allocated for it, and it is painted into
// a cleared framebuffer — a colour frame over a cleared depth plane.
func DecodeFrame(b []byte) (*raster.Framebuffer, error) {
	w, h, err := CheckFrame(b)
	if err != nil {
		return nil, err
	}
	fb := raster.NewFramebuffer(w, h)
	if err := PaintFrame(fb, b, 0, 0, PaintAll); err != nil {
		return nil, err
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
