package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// allocatedBy returns the heap bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// header is a frame header announcing n payload bytes.
func header(t MsgType, n uint32, sum uint32) []byte {
	var hdr [headerSize]byte
	binary.BigEndian.PutUint16(hdr[0:], frameMagic)
	binary.BigEndian.PutUint16(hdr[2:], uint16(t))
	binary.BigEndian.PutUint32(hdr[4:], n)
	binary.BigEndian.PutUint32(hdr[8:], sum)
	return hdr[:]
}

// TestReceiveAllocatesWhatArrives: twelve bytes claiming MaxPayload must
// not make the receiver allocate MaxPayload before one payload byte has
// arrived, and a payload longer than the eager allocation still arrives
// intact through the growing buffer.
func TestReceiveAllocatesWhatArrives(t *testing.T) {
	var err error
	got := allocatedBy(func() {
		_, _, err = NewConn(bytes.NewBuffer(header(MsgFrame, MaxPayload, 0))).Receive()
	})
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("header-only stream: %v, want ErrTruncated", err)
	}
	if got > 2*eagerPayload {
		t.Errorf("a 12-byte stream made Receive allocate %d bytes, want at most %d", got, 2*eagerPayload)
	}

	big := make([]byte, eagerPayload+eagerPayload/2+7)
	for i := range big {
		big[i] = byte(i * 31)
	}
	var buf bytes.Buffer
	if err := NewConn(&buf).Send(MsgSceneSnapshot, big); err != nil {
		t.Fatal(err)
	}
	mt, back, err := NewConn(&buf).Receive()
	if err != nil || mt != MsgSceneSnapshot || !bytes.Equal(back, big) {
		t.Fatalf("%d-byte payload: type %s, %d bytes back, err %v", len(big), mt, len(back), err)
	}
}

// FuzzReceive feeds Receive arbitrary bytes, the way a socket does. It
// must not panic; it must answer with a frame or one of the typed
// stream errors; a frame it accepts must re-Send as exactly the bytes it
// consumed; and what it allocates is bounded by what it was sent, not by
// what the header claims.
func FuzzReceive(f *testing.F) {
	var good bytes.Buffer
	c := NewConn(&good)
	for _, p := range [][]byte{nil, []byte("abcdef"), bytes.Repeat([]byte{7}, 300)} {
		if err := c.Send(MsgSceneOpVer, p); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:good.Len()-3])
	// One render exchange: the request, and a peer's versioned depth reply.
	var exchange bytes.Buffer
	c = NewConn(&exchange)
	cam := CameraState{Eye: [3]float64{0, 0, 5}, Up: [3]float64{0, 1, 0}, FovY: 0.8, Near: 0.1, Far: 100}
	if err := c.SendJSON(MsgRender, RenderRequest{Y0: 240, X1: 640, Y1: 480, FullW: 640, FullH: 480, Camera: &cam, DeadlineNanos: 1}); err != nil {
		f.Fatal(err)
	}
	if err := c.Send(MsgFrameDepth, PackVersioned(7, []byte{0, 0, 0, 1, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})); err != nil {
		f.Fatal(err)
	}
	f.Add(exchange.Bytes())
	f.Add(header(MsgFrame, MaxPayload, 0))
	f.Add(header(MsgFrame, MaxPayload+1, 0))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		stream := bytes.NewReader(in)
		conn := NewConn(struct {
			io.Reader
			io.Writer
		}{stream, io.Discard})
		for {
			start := len(in) - stream.Len()
			var mt MsgType
			var payload []byte
			var err error
			receive := func() { mt, payload, err = conn.Receive() }
			// Measuring stops the world, so only frames that claim more
			// than the eager allocation pay for it.
			if stream.Len() >= headerSize && binary.BigEndian.Uint32(in[start+4:]) > eagerPayload {
				if got := allocatedBy(receive); got > 2*eagerPayload+4*uint64(len(in)) {
					t.Fatalf("%d input bytes made Receive allocate %d", len(in), got)
				}
			} else {
				receive()
			}
			if err != nil {
				for _, want := range []error{io.EOF, ErrTruncated, ErrBadMagic, ErrTooLarge, ErrChecksum} {
					if errors.Is(err, want) {
						return
					}
				}
				t.Fatalf("untyped error %v", err)
			}
			var resent bytes.Buffer
			if err := NewConn(&resent).Send(mt, payload); err != nil {
				t.Fatal(err)
			}
			consumed := in[start : len(in)-stream.Len()]
			if !bytes.Equal(resent.Bytes(), consumed) {
				t.Fatalf("accepted frame re-sends as %x, consumed %x", resent.Bytes(), consumed)
			}
		}
	})
}
