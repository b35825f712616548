package renderservice

import (
	"errors"
	"image"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/transport"
	"repro/internal/vclock"
)

func newAdmissionService(depth int, clk vclock.Clock, simulate bool) *Service {
	return New(Config{
		Name: "rs-adm", Device: device.CentrinoLaptop, Workers: 2,
		Clock: clk, SimulateDeviceTime: simulate, QueueDepth: depth,
	})
}

// TestAdmissionQueueFullSheds fills the bounded queue with renders
// parked on the virtual clock and proves the next request is refused
// fast with a typed ErrOverloaded carrying a retry-after hint, then
// admitted again once the queue drains.
func TestAdmissionQueueFullSheds(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	svc := newAdmissionService(2, clk, true)
	sess, err := svc.OpenSession("s", testScene(t), testCamera(testScene(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// Two renders sleep out their modeled device time on the virtual
	// clock, holding both queue slots.
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := sess.RenderFrame(32, 32, "bob")
			done <- err
		}()
	}
	waitAdmitted(t, svc, 2)

	// The third request must be shed immediately, not queued.
	_, err = sess.RenderFrame(32, 32, "bob")
	var ov *ErrOverloaded
	if !errors.As(err, &ov) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if ov.Reason != ReasonQueueFull {
		t.Fatalf("reason = %q, want %q", ov.Reason, ReasonQueueFull)
	}
	if ov.RetryAfter <= 0 {
		t.Fatalf("retry-after hint = %v, want > 0", ov.RetryAfter)
	}
	if _, shed := svc.AdmissionStats(); shed != 1 {
		t.Fatalf("shed = %d, want 1", shed)
	}

	// Drain the queue and prove the gate reopens.
	stopAdv := startAdvance(clk)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("parked render failed: %v", err)
		}
	}
	if _, err := sess.RenderFrame(32, 32, "bob"); err != nil {
		t.Fatalf("render after drain: %v", err)
	}
	stopAdv()
}

// TestAdmissionBackgroundReservation proves tile/subset assists only
// get half the queue: with two interactive renders holding a depth-4
// queue, background work at its depth/2=2 cap is refused while a third
// interactive frame is still admitted.
func TestAdmissionBackgroundReservation(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	svc := newAdmissionService(4, clk, true)
	sc := testScene(t)
	sess, err := svc.OpenSession("s", sc, testCamera(sc))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	done := make(chan error, 3)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := sess.RenderFrame(32, 32, "bob")
			done <- err
		}()
	}
	waitAdmitted(t, svc, 2)

	_, err = sess.RenderTile(image.Rect(0, 0, 16, 16), 32, 32)
	var ov *ErrOverloaded
	if !errors.As(err, &ov) || ov.Reason != ReasonQueueFull {
		t.Fatalf("background work at cap: want queue-full ErrOverloaded, got %v", err)
	}

	// Interactive work still fits (slots 3 and 4 are reserved for it).
	go func() {
		_, err := sess.RenderFrame(32, 32, "bob")
		done <- err
	}()
	waitAdmitted(t, svc, 3)

	stopAdv := startAdvance(clk)
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatalf("parked render failed: %v", err)
		}
	}
	stopAdv()
}

// frameBy renders bob's 32x32 interactive frame under a deadline.
func frameBy(sess *Session, deadline time.Time) (*Frame, error) {
	return sess.svc.Render(Job{
		Session: sess, Rect: image.Rect(0, 0, 32, 32), FullW: 32, FullH: 32,
		Viewer: "bob", Interactive: true, Deadline: deadline,
	})
}

// TestAdmissionDeadlines proves expired work is cancelled without
// rendering and infeasible deadlines (closer than the estimated
// completion time) are declined.
func TestAdmissionDeadlines(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	svc := newAdmissionService(4, clk, false)
	sc := testScene(t)
	sess, err := svc.OpenSession("s", sc, testCamera(sc))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// A deadline at (or before) now is expired on arrival.
	_, err = frameBy(sess, clk.Now())
	var ov *ErrOverloaded
	if !errors.As(err, &ov) || ov.Reason != ReasonExpired {
		t.Fatalf("expired deadline: want %q, got %v", ReasonExpired, err)
	}

	// Seed the completion estimate with one real render, then ask for a
	// deadline far inside it.
	if _, err := sess.RenderFrame(32, 32, "bob"); err != nil {
		t.Fatal(err)
	}
	_, err = frameBy(sess, clk.Now().Add(time.Nanosecond))
	if !errors.As(err, &ov) || ov.Reason != ReasonDeadline {
		t.Fatalf("infeasible deadline: want %q, got %v", ReasonDeadline, err)
	}

	// A generous deadline is admitted and rendered.
	if _, err := frameBy(sess, clk.Now().Add(time.Hour)); err != nil {
		t.Fatalf("feasible deadline refused: %v", err)
	}
}

// TestServeClientDeclinesExpired drives the wire protocol: a frame
// request whose deadline already passed gets a fast MsgDeclined (the
// session survives) instead of a rendered-and-discarded frame or a
// fatal MsgError.
func TestServeClientDeclinesExpired(t *testing.T) {
	// A nonzero epoch: unix-zero "now" would encode as wire deadline 0,
	// i.e. "no deadline".
	clk := vclock.NewVirtual(time.Unix(1000, 0))
	svc := newAdmissionService(4, clk, false)
	sc := testScene(t)
	if _, err := svc.OpenSession("s", sc, testCamera(sc)); err != nil {
		t.Fatal(err)
	}

	client, server := net.Pipe()
	defer client.Close()
	serveDone := make(chan error, 1)
	go func() { serveDone <- svc.ServeClient(server, 1e9) }()

	conn := transport.NewConn(client)
	if err := conn.SendJSON(transport.MsgHello, transport.Hello{Role: "thin-client", Name: "bob", Session: "s"}); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := conn.Receive(); err != nil || mt != transport.MsgOK {
		t.Fatalf("hello reply = %v, %v", mt, err)
	}

	frame := transport.RenderRequest{X1: 32, Y1: 32, FullW: 32, FullH: 32}
	expired := frame
	expired.DeadlineNanos = transport.DeadlineToNanos(clk.Now())
	if err := conn.SendJSON(transport.MsgRender, expired); err != nil {
		t.Fatal(err)
	}
	_, err := conn.Expect(transport.MsgFrame)
	var d *ErrOverloaded
	if !errors.As(err, &d) {
		t.Fatalf("reply = %v, want a decline", err)
	}
	if d.Reason != ReasonExpired {
		t.Fatalf("decline reason = %q, want %q", d.Reason, ReasonExpired)
	}

	// The session is still usable: an undeadlined request renders.
	if err := conn.SendJSON(transport.MsgRender, frame); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := conn.Receive(); err != nil || mt != transport.MsgFrame {
		t.Fatalf("post-decline frame = %v, %v", mt, err)
	}
	if err := conn.Send(transport.MsgBye, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestServeClientRefusesOversizedTile: a tile request off the wire
// naming a frame beyond the size bound is answered with MsgError before
// anything is admitted or allocated — whether the tile itself is small
// (which used to render) or as large as the frame (which used to size a
// framebuffer from the socket) — and the connection keeps serving.
func TestServeClientRefusesOversizedTile(t *testing.T) {
	svc := newService("rs")
	sc := testScene(t)
	if _, err := svc.OpenSession("s", sc, testCamera(sc)); err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	defer client.Close()
	serveDone := make(chan error, 1)
	go func() { serveDone <- svc.ServeClient(server, 1e9) }()

	conn := transport.NewConn(client)
	if err := conn.SendJSON(transport.MsgHello, transport.Hello{Role: "peer", Name: "data", Session: "s"}); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := conn.Receive(); err != nil || mt != transport.MsgOK {
		t.Fatalf("hello reply = %v, %v", mt, err)
	}

	const huge = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, tile := range []transport.RenderRequest{
		{X1: 64, Y1: 64, FullW: huge, FullH: huge},
		{X1: huge, Y1: huge, FullW: huge, FullH: huge},
	} {
		if err := conn.SendJSON(transport.MsgRender, tile); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Expect(transport.MsgFrameDepth); !errors.As(err, new(*transport.Refusal)) {
			t.Fatalf("tile %+v: reply = %v; want a refusal", tile, err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refused tiles allocated %d bytes", grew)
	}
	if admitted, _ := svc.AdmissionStats(); admitted != 0 {
		t.Errorf("refused tiles were admitted %d times", admitted)
	}

	// The connection survived: a well-formed tile renders.
	if err := conn.SendJSON(transport.MsgRender, transport.RenderRequest{X1: 16, Y1: 16, FullW: 32, FullH: 32}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Expect(transport.MsgFrameDepth); err != nil {
		t.Fatalf("tile reply: %v", err)
	}
	if err := conn.Send(transport.MsgBye, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// waitAdmitted blocks until the service has admitted n render calls.
func waitAdmitted(t *testing.T, svc *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if admitted, _ := svc.AdmissionStats(); admitted >= n {
			return
		}
		if time.Now().After(deadline) {
			admitted, shed := svc.AdmissionStats()
			t.Fatalf("timed out waiting for %d admissions (admitted=%d shed=%d)", n, admitted, shed)
		}
		time.Sleep(time.Millisecond)
	}
}

// startAdvance drives a virtual clock from the background until the
// returned stop function is called (the chaos suite's idiom).
func startAdvance(clk *vclock.Virtual) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
				clk.Advance(5 * time.Millisecond)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	return func() { close(quit); <-done }
}
