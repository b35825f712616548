package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// answered returns a Conn, its peer named "rs", whose next Receive reads
// what answer sends (or EOF once answer returns having sent nothing).
func answered(t *testing.T, answer func(far *Conn)) *Conn {
	t.Helper()
	near, far := net.Pipe()
	t.Cleanup(func() { near.Close() })
	go func() {
		defer far.Close()
		answer(NewConn(far))
	}()
	c := NewConn(near)
	c.SetPeer("rs")
	return c
}

// TestExpect tabulates the one reply reader: every way a request can be
// answered, and what the caller gets for it.
func TestExpect(t *testing.T) {
	overload := &Decline{Service: "rs", Reason: "queue-full", RetryAfter: 40 * time.Millisecond}
	for _, tc := range []struct {
		name   string
		answer func(far *Conn)
		check  func(t *testing.T, payload []byte, err error)
	}{
		{"wanted type", func(far *Conn) { far.Send(MsgFrame, []byte("pixels")) },
			func(t *testing.T, payload []byte, err error) {
				if err != nil || string(payload) != "pixels" {
					t.Errorf("got %q, %v", payload, err)
				}
			}},
		{"refusal", func(far *Conn) { far.Refuse(errors.New("bad frame size -1x2")) },
			func(t *testing.T, _ []byte, err error) {
				var r *Refusal
				if !errors.As(err, &r) || r.Peer != "rs" || r.Message != "bad frame size -1x2" {
					t.Errorf("got %#v", err)
				}
			}},
		{"decline", func(far *Conn) { far.Refuse(overload) },
			func(t *testing.T, _ []byte, err error) {
				var d *Decline
				if !errors.As(err, &d) || *d != *overload {
					t.Errorf("got %#v, want %#v", err, overload)
				}
			}},
		{"undecodable refusal body", func(far *Conn) { far.Send(MsgError, []byte("{not json")) },
			func(t *testing.T, _ []byte, err error) {
				if !errors.As(err, new(*Refusal)) {
					t.Errorf("got %v, want a refusal all the same", err)
				}
			}},
		{"undecodable decline body", func(far *Conn) { far.Send(MsgDeclined, nil) },
			func(t *testing.T, _ []byte, err error) {
				if !errors.As(err, new(*Decline)) {
					t.Errorf("got %v, want a decline all the same", err)
				}
			}},
		{"unexpected type", func(far *Conn) { far.Send(MsgCapacityReport, nil) },
			func(t *testing.T, _ []byte, err error) {
				if err == nil || !strings.Contains(err.Error(), MsgFrame.String()) || !strings.Contains(err.Error(), MsgCapacityReport.String()) {
					t.Errorf("got %v, want a protocol error naming both types", err)
				}
				if errors.As(err, new(*Refusal)) || errors.As(err, new(*Decline)) {
					t.Errorf("a protocol error is no answer: %v", err)
				}
			}},
		{"end of stream", func(*Conn) {},
			func(t *testing.T, _ []byte, err error) {
				if err != io.EOF {
					t.Errorf("got %v, want io.EOF bare", err)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			payload, err := answered(t, tc.answer).Expect(MsgFrame)
			tc.check(t, payload, err)
		})
	}
}

// TestRefuse tabulates the one refusal writer: what an error becomes on
// the wire.
func TestRefuse(t *testing.T) {
	decline := &Decline{Service: "rs", Reason: "expired"}
	for _, tc := range []struct {
		name string
		err  error
		want MsgType
		body string
	}{
		{"decline", decline, MsgDeclined, `{"reason":"expired"}`},
		{"wrapped decline", fmt.Errorf("tile 3: %w", decline), MsgDeclined, `{"reason":"expired"}`},
		{"decline with a hint", &Decline{Reason: "queue-full", RetryAfter: 1500 * time.Millisecond}, MsgDeclined, `{"reason":"queue-full","retry_after_ms":1500}`},
		{"plain error", errors.New("no session \"s\""), MsgError, `{"message":"no session \"s\""}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := answered(t, func(far *Conn) { far.Refuse(tc.err) })
			mt, payload, err := c.Receive()
			if err != nil || mt != tc.want || string(payload) != tc.body {
				t.Errorf("got %s %s, %v; want %s %s", mt, payload, err, tc.want, tc.body)
			}
		})
	}
}

// TestHelloSaidOnceAcceptedOnce: Greet and Accept are the two ends of the
// hello; the acceptor learns the asker's name, and its refusal reaches
// the asker typed.
func TestHelloSaidOnceAcceptedOnce(t *testing.T) {
	hello := Hello{Role: "peer", Name: "data-service", Session: "s"}
	for _, refuse := range []bool{false, true} {
		near, far := net.Pipe()
		defer near.Close()
		go func() {
			defer far.Close()
			c, got, err := Accept(far)
			if err != nil || !reflect.DeepEqual(got, hello) || c.Peer() != hello.Name {
				t.Errorf("accepted %+v from %q, %v", got, c.Peer(), err)
				return
			}
			if refuse {
				c.Refuse(errors.New("no session \"s\""))
			} else {
				c.Send(MsgOK, nil)
			}
		}()
		err := NewConn(near).Greet(hello)
		if refused := errors.As(err, new(*Refusal)); refused != refuse || (err != nil) != refuse {
			t.Errorf("refuse=%v: greet = %v", refuse, err)
		}
	}
	// Anything but a hello first is a protocol error, not a session.
	near, far := net.Pipe()
	defer near.Close()
	go NewConn(far).Send(MsgRender, nil)
	if _, _, err := Accept(near); err == nil || !strings.Contains(err.Error(), "hello") {
		t.Errorf("accept of a render request = %v", err)
	}
}

// TestWireValuesKept: retiring a message leaves a gap; no surviving type
// was renumbered. 7, 10, 11, 15, 17 and 19–22 are retired and stay
// reserved.
func TestWireValuesKept(t *testing.T) {
	for mt, want := range map[MsgType]uint16{
		MsgHello: 1, MsgOK: 2, MsgError: 3, MsgSceneSnapshot: 4, MsgSceneOp: 5, MsgCameraUpdate: 6,
		MsgFrame: 8, MsgFrameDepth: 9, MsgCapacityQuery: 12, MsgCapacityReport: 13, MsgLoadReport: 14,
		MsgBye: 16, MsgSceneOpVer: 18,
		MsgResumeOK: 23, MsgDeclined: 24, MsgTelemetryQuery: 25,
		MsgTelemetryReport: 26, MsgRouteQuery: 27, MsgRouteReport: 28, MsgRender: 29,
	} {
		if uint16(mt) != want {
			t.Errorf("%s is %d on the wire, want %d", mt, uint16(mt), want)
		}
	}
	for _, gap := range []MsgType{7, 10, 11, 15, 17, 19, 20, 21, 22} {
		if name := gap.String(); name != fmt.Sprintf("msg(%d)", uint16(gap)) {
			t.Errorf("retired number %d is in use by %s", uint16(gap), name)
		}
	}
}
