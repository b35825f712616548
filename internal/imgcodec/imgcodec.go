// Package imgcodec provides the frame codecs RAVE uses to ship rendered
// framebuffers to thin clients and between render services. The paper
// transmits uncompressed frames and names adaptive image compression as
// required future work (§5.1, §6): the bottleneck on the PDA was the
// 11 Mbit wireless link, whose bandwidth varies with signal quality. This
// package implements the uncompressed baseline, RLE, delta+RLE for
// temporal coherence, and an adaptive codec that picks per frame based on
// the link's measured throughput.
package imgcodec

import (
	"bytes"
	"compress/flate"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"
)

// Codec identifies a frame encoding.
type Codec uint8

// Available codecs.
const (
	// Raw is the uncompressed 24bpp stream the paper used.
	Raw Codec = iota
	// RLE run-length encodes runs of identical pixels.
	RLE
	// DeltaRLE XORs against the previous frame and RLE-encodes the
	// result, exploiting temporal coherence during camera dwell.
	DeltaRLE
	// Flate DEFLATE-compresses the raw frame — handles shaded gradients
	// that defeat run-length coding.
	Flate
)

// String returns the codec name.
func (c Codec) String() string {
	switch c {
	case Raw:
		return "raw"
	case RLE:
		return "rle"
	case DeltaRLE:
		return "delta-rle"
	case Flate:
		return "flate"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// header layout: codec byte, width uint16, height uint16, payload length
// uint32.
const headerSize = 1 + 2 + 2 + 4

// Encode compresses an RGB frame (3 bytes per pixel) with the given codec.
// prev is the previous frame for DeltaRLE and may be nil, in which case
// DeltaRLE degrades to RLE of the raw frame.
func Encode(codec Codec, w, h int, frame, prev []byte) ([]byte, error) {
	if len(frame) != w*h*3 {
		return nil, fmt.Errorf("imgcodec: frame is %d bytes, want %d", len(frame), w*h*3)
	}
	if w < 0 || h < 0 || w > 0xffff || h > 0xffff {
		return nil, fmt.Errorf("imgcodec: dimensions %dx%d out of range", w, h)
	}
	var payload []byte
	switch codec {
	case Raw:
		payload = frame
	case RLE:
		payload = rleEncode(frame)
	case DeltaRLE:
		if prev != nil && len(prev) == len(frame) {
			diff := make([]byte, len(frame))
			subtle.XORBytes(diff, frame, prev)
			payload = rleEncode(diff)
		} else {
			// No usable reference frame: the stream must not claim to be
			// a delta, which a decoder without the reference refuses.
			codec = RLE
			payload = rleEncode(frame)
		}
	case Flate:
		var err error
		payload, err = flateEncode(frame)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("imgcodec: unknown codec %d", codec)
	}
	out := make([]byte, headerSize+len(payload))
	out[0] = byte(codec)
	binary.BigEndian.PutUint16(out[1:], uint16(w))
	binary.BigEndian.PutUint16(out[3:], uint16(h))
	binary.BigEndian.PutUint32(out[5:], uint32(len(payload)))
	copy(out[headerSize:], payload)
	return out, nil
}

// Decode decompresses an encoded frame. prev is the previously decoded
// frame, which a DeltaRLE frame is a difference against: the encoder
// only sends one when it held a reference of the frame's size, so a
// DeltaRLE frame arriving without that reference is refused.
func Decode(data, prev []byte) (codec Codec, w, h int, frame []byte, err error) {
	if len(data) < headerSize {
		return 0, 0, 0, nil, fmt.Errorf("imgcodec: short header (%d bytes)", len(data))
	}
	codec = Codec(data[0])
	w = int(binary.BigEndian.Uint16(data[1:]))
	h = int(binary.BigEndian.Uint16(data[3:]))
	plen := int(binary.BigEndian.Uint32(data[5:]))
	if len(data) != headerSize+plen {
		return 0, 0, 0, nil, fmt.Errorf("imgcodec: payload is %d bytes, header says %d",
			len(data)-headerSize, plen)
	}
	payload := data[headerSize:]
	want := w * h * 3
	switch codec {
	case Raw:
		if len(payload) != want {
			return 0, 0, 0, nil, fmt.Errorf("imgcodec: raw payload %d bytes, want %d", len(payload), want)
		}
		frame = append([]byte(nil), payload...)
	case RLE:
		frame, err = rleDecode(payload, want)
		if err != nil {
			return 0, 0, 0, nil, err
		}
	case DeltaRLE:
		if len(prev) != want {
			return 0, 0, 0, nil, fmt.Errorf("imgcodec: delta-rle frame of %d bytes against a reference of %d", want, len(prev))
		}
		frame, err = rleDecode(payload, want)
		if err != nil {
			return 0, 0, 0, nil, err
		}
		subtle.XORBytes(frame, frame, prev)
	case Flate:
		var ferr error
		frame, ferr = flateDecode(payload, want)
		if ferr != nil {
			return 0, 0, 0, nil, ferr
		}
	default:
		return 0, 0, 0, nil, fmt.Errorf("imgcodec: unknown codec %d", codec)
	}
	return codec, w, h, frame, nil
}

// rleEncode run-length encodes 3-byte RGB pixels as
// (count uint8, r, g, b) quads with a 255-pixel run cap. Operating on
// pixels rather than bytes is what lets flat regions of a 24bpp frame
// collapse. A run of equal pixels lasts while every byte equals the byte
// three before it, which is tested eight bytes at a time.
func rleEncode(src []byte) []byte {
	out := make([]byte, 0, len(src)/8+16)
	n := len(src) / 3 * 3
	for i := 0; i < n; {
		// j: the first byte past pixel i that differs from the byte three
		// before it; every pixel that ends at or before j repeats pixel i.
		j := i + 3
		for j+8 <= n && binary.LittleEndian.Uint64(src[j:]) == binary.LittleEndian.Uint64(src[j-3:]) {
			j += 8
		}
		for j < n && src[j] == src[j-3] {
			j++
		}
		r, g, b := src[i], src[i+1], src[i+2]
		run := (j - i) / 3
		i += run * 3
		for ; run > 255; run -= 255 {
			out = append(out, 255, r, g, b)
		}
		out = append(out, byte(run), r, g, b)
	}
	return out
}

// rleDecode expands (count, r, g, b) quads and checks the exact output
// size. want comes from a header off the wire: it is checked against
// what the quads present could expand to — 255 pixels each — before
// the output is allocated, once, at that size.
func rleDecode(src []byte, want int) ([]byte, error) {
	if len(src)%4 != 0 {
		return nil, fmt.Errorf("imgcodec: RLE payload length %d not a multiple of 4", len(src))
	}
	if most := len(src) / 4 * 255 * 3; want > most {
		return nil, fmt.Errorf("imgcodec: RLE payload of %d bytes cannot fill a %d-byte frame", len(src), want)
	}
	out := make([]byte, want)
	at := 0
	for i := 0; i < len(src); i += 4 {
		n := int(src[i]) * 3
		if n == 0 {
			return nil, fmt.Errorf("imgcodec: zero-length run at %d", i)
		}
		if at+n > want {
			return nil, fmt.Errorf("imgcodec: RLE output overflows %d bytes", want)
		}
		// A black run is the zeroes out already holds; any other is its
		// pixel written once and copied onto the rest, doubling.
		if r, g, b := src[i+1], src[i+2], src[i+3]; r|g|b != 0 {
			run := out[at : at+n]
			run[0], run[1], run[2] = r, g, b
			for filled := 3; filled < n; filled *= 2 {
				copy(run[filled:], run[:filled])
			}
		}
		at += n
	}
	if at != want {
		return nil, fmt.Errorf("imgcodec: RLE produced %d bytes, want %d", at, want)
	}
	return out, nil
}

// Adaptive is one viewer's encoder. It keeps exactly one previous frame,
// the last it encoded in any codec, which is by construction the frame
// the viewer's decoder holds: a delta is never against a frame some other
// viewer, or some other codec, saw last. Its "adaptive" codec chooses per
// frame from the link's measured throughput and the frame's
// compressibility — the paper's "compression algorithm that can adapt on
// the fly to changing network conditions" (§5.1).
type Adaptive struct {
	// RawThresholdBps: above this measured throughput the adaptive codec
	// sends raw (compression would waste CPU for no latency win).
	RawThresholdBps float64
	prev            []byte
}

// NewAdaptive returns an encoder with a threshold tuned so that a
// 100 Mbit LAN ships raw frames while an 11 Mbit (or degraded) wireless
// link compresses.
func NewAdaptive() *Adaptive {
	return &Adaptive{RawThresholdBps: 50e6}
}

// codecNames are the fixed codecs a viewer may ask for by name; "adaptive"
// is the fifth.
var codecNames = map[string]Codec{"": Raw, "raw": Raw, "rle": RLE, "delta-rle": DeltaRLE, "flate": Flate}

// Encode encodes the frame in the named codec — throughputBps (bits per
// second) is the adaptive choice's input — and remembers it as the
// reference for the next delta.
func (a *Adaptive) Encode(name string, w, h int, frame []byte, throughputBps float64) (out []byte, err error) {
	if codec, ok := codecNames[name]; ok {
		out, err = Encode(codec, w, h, frame, a.prev)
	} else if name == "adaptive" {
		out, err = a.choose(w, h, frame, throughputBps)
	} else {
		err = fmt.Errorf("imgcodec: unknown codec %q", name)
	}
	if err == nil {
		a.prev = append(a.prev[:0], frame...)
	}
	return out, err
}

// choose is the adaptive codec: raw on a fast link; on a slow one the
// smallest of the run-length family (Encode makes it a delta when a
// reference frame exists) and DEFLATE, with raw the floor for
// incompressible content.
func (a *Adaptive) choose(w, h int, frame []byte, throughputBps float64) ([]byte, error) {
	if throughputBps >= a.RawThresholdBps {
		return Encode(Raw, w, h, frame, nil)
	}
	best, err := Encode(DeltaRLE, w, h, frame, a.prev)
	if err != nil {
		return nil, err
	}
	if fl, err := Encode(Flate, w, h, frame, nil); err == nil && len(fl) < len(best) {
		best = fl
	}
	if len(best) >= len(frame)+headerSize {
		return Encode(Raw, w, h, frame, nil)
	}
	return best, nil
}

// flateEncode DEFLATE-compresses a frame at BestSpeed (interactive use).
func flateEncode(frame []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, fmt.Errorf("imgcodec: flate init: %w", err)
	}
	if _, err := w.Write(frame); err != nil {
		return nil, fmt.Errorf("imgcodec: flate write: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("imgcodec: flate close: %w", err)
	}
	return buf.Bytes(), nil
}

// maxFlateRatio is DEFLATE's expansion limit: a 258-byte match costs at
// least two bits.
const maxFlateRatio = 1032

// flateDecode inflates a frame and checks the exact output size. want
// comes from a header off the wire: a size the payload could not
// inflate to is refused before anything is allocated for it.
func flateDecode(payload []byte, want int) ([]byte, error) {
	if want > len(payload)*maxFlateRatio {
		return nil, fmt.Errorf("imgcodec: flate payload of %d bytes cannot fill a %d-byte frame", len(payload), want)
	}
	r := flate.NewReader(bytes.NewReader(payload))
	defer r.Close()
	out := make([]byte, want)
	if n, err := io.ReadFull(r, out); err == io.EOF || err == io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("imgcodec: flate produced %d bytes, want %d", n, want)
	} else if err != nil {
		return nil, fmt.Errorf("imgcodec: flate read: %w", err)
	}
	// The stream must end where the frame does.
	var more [1]byte
	switch _, err := io.ReadFull(r, more[:]); err {
	case io.EOF:
		return out, nil
	case nil:
		return nil, fmt.Errorf("imgcodec: flate output exceeds %d bytes", want)
	default:
		return nil, fmt.Errorf("imgcodec: flate read: %w", err)
	}
}
