package transport

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
)

// pipeConns returns two Conns joined by an in-memory full-duplex pipe.
func pipeConns() (*Conn, *Conn, func()) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b), func() { a.Close(); b.Close() }
}

func TestSendReceiveRoundTrip(t *testing.T) {
	ca, cb, closeFn := pipeConns()
	defer closeFn()
	go func() {
		if err := ca.Send(MsgFrame, []byte("pixels")); err != nil {
			t.Error(err)
		}
	}()
	typ, payload, err := cb.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgFrame || string(payload) != "pixels" {
		t.Errorf("got %v %q", typ, payload)
	}
}

func TestEmptyPayload(t *testing.T) {
	ca, cb, closeFn := pipeConns()
	defer closeFn()
	go ca.Send(MsgBye, nil)
	typ, payload, err := cb.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgBye || len(payload) != 0 {
		t.Errorf("got %v %d bytes", typ, len(payload))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	ca, cb, closeFn := pipeConns()
	defer closeFn()
	hello := Hello{Role: "render-service", Name: "zaurus", Session: "skull", Interest: []uint64{3, 7}}
	go func() {
		if err := ca.SendJSON(MsgHello, hello); err != nil {
			t.Error(err)
		}
	}()
	typ, payload, err := cb.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgHello {
		t.Fatalf("type %v", typ)
	}
	var got Hello
	if err := DecodeJSON(payload, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, hello) {
		t.Errorf("got %+v", got)
	}
}

func TestConcurrentSendsDoNotInterleave(t *testing.T) {
	ca, cb, closeFn := pipeConns()
	defer closeFn()
	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{id}, 100)
			for k := 0; k < n; k++ {
				if err := ca.Send(MsgFrame, payload); err != nil {
					t.Error(err)
					return
				}
			}
		}(byte(i + 1))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 8*n; k++ {
			_, payload, err := cb.Receive()
			if err != nil {
				t.Error(err)
				return
			}
			if len(payload) != 100 {
				t.Errorf("frame %d: %d bytes", k, len(payload))
				return
			}
			for _, b := range payload {
				if b != payload[0] {
					t.Error("interleaved payload")
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
}

func TestReceiveErrors(t *testing.T) {
	// Bad magic.
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 1, 0, 0, 0, 0})
	if _, _, err := NewConn(&buf).Receive(); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated payload.
	var buf2 bytes.Buffer
	good := NewConn(&buf2)
	if err := good.Send(MsgFrame, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewBuffer(buf2.Bytes()[:buf2.Len()-3])
	if _, _, err := NewConn(struct {
		io.Reader
		io.Writer
	}{trunc, io.Discard}).Receive(); err == nil {
		t.Error("truncated payload accepted")
	}
	// EOF on empty stream.
	if _, _, err := NewConn(bytes.NewBuffer(nil)).Receive(); err != io.EOF {
		t.Errorf("empty stream error: %v", err)
	}
}

func TestOversizePayloadRejected(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	huge := make([]byte, 0) // don't actually allocate 1GB; craft header
	if err := c.Send(MsgFrame, huge); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Rewrite length field to exceed the cap.
	raw[4], raw[5], raw[6], raw[7] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := NewConn(bytes.NewBuffer(raw)).Receive(); err == nil {
		t.Error("oversize header accepted")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	if MsgHello.String() != "hello" || MsgFrame.String() != "frame" {
		t.Error("known names wrong")
	}
	if MsgType(999).String() == "" {
		t.Error("unknown name empty")
	}
}

// TestDialAcceptsSchemeOrBareAddress: UDDI access points carry a tcp://
// scheme, flag-supplied addresses do not; both reach the same listener.
func TestDialAcceptsSchemeOrBareAddress(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	for _, ap := range []string{"tcp://" + ln.Addr().String(), ln.Addr().String()} {
		conn, err := Dial(ap)
		if err != nil {
			t.Fatalf("Dial(%q): %v", ap, err)
		}
		conn.Close()
	}
}

// TestSendPathsAgreeOnTCP: on a TCP stream a large payload leaves as one
// vectored write beside its header and a small one as one copied buffer;
// the receiver cannot tell, and concurrent senders of both still never
// interleave.
func TestSendPathsAgreeOnTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	near, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer near.Close()
	far, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer far.Close()

	const rounds = 20
	sizes := []int{100, vectoredMin - 1, vectoredMin, 1 << 20}
	var wg sync.WaitGroup
	ca := NewConn(near)
	for i, size := range sizes {
		wg.Add(1)
		payload := bytes.Repeat([]byte{byte(i + 1)}, size)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				if err := ca.Send(MsgFrame, payload); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	cb := NewConn(far)
	got := map[int]int{}
	for k := 0; k < rounds*len(sizes); k++ {
		_, payload, err := cb.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if want := bytes.Repeat(payload[:1], len(payload)); !bytes.Equal(payload, want) {
			t.Fatalf("message %d: interleaved payload", k)
		}
		got[len(payload)]++
	}
	wg.Wait()
	for _, size := range sizes {
		if got[size] != rounds {
			t.Errorf("%d messages of %d bytes, want %d", got[size], size, rounds)
		}
	}
}
