package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/device"
	"repro/internal/geom/genmodel"
	"repro/internal/imgcodec"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/retry"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// resilientRenderService starts a render service with an open session
// and returns a dialer that connects a fresh pipe to it per call.
func resilientRenderService(t *testing.T) (*renderservice.Service, transport.Dialer, *int) {
	t.Helper()
	rs := renderservice.New(renderservice.Config{
		Name: "rs", Device: device.CentrinoLaptop, Workers: 2,
	})
	sc := scene.New()
	id := sc.AllocID()
	err := sc.ApplyOp(&scene.AddNodeOp{
		Parent: scene.RootID, ID: id, Name: "ship", Transform: mathx.Identity(),
		Payload: &scene.MeshPayload{Mesh: genmodel.Galleon(1500)},
	})
	if err != nil {
		t.Fatal(err)
	}
	cam := raster.DefaultCamera().FitToBounds(sc.Bounds(), mathx.V3(0.3, 0.2, 1))
	sess, err := rs.OpenSession("galleon", sc, cam)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sess.Close)
	dials := 0
	dial := func() (io.ReadWriteCloser, error) {
		dials++
		cEnd, sEnd := net.Pipe()
		go rs.ServeClient(sEnd, 5e6)
		return cEnd, nil
	}
	return rs, dial, &dials
}

func TestResilientThinReconnectsAfterDeadLink(t *testing.T) {
	_, dial, dials := resilientRenderService(t)
	policy := retry.DefaultPolicy()
	policy.BaseDelay = time.Millisecond
	policy.MaxAttempts = 5
	ctx := context.Background()

	thin, err := DialThinResilient(ctx, dial, "zaurus", "galleon", policy, vclock.Real{})
	if err != nil {
		t.Fatal(err)
	}
	defer thin.Close()

	cam := raster.DefaultCamera()
	cam.Eye = cam.Eye.Add(raster.DefaultCamera().Up) // any distinct camera
	if err := thin.SetCamera(ctx, cam); err != nil {
		t.Fatal(err)
	}
	fb1, err := thin.RequestFrame(ctx, 64, 64, "raw")
	if err != nil {
		t.Fatal(err)
	}

	// The render service dies mid-session: sever the stream under the
	// client. The next request must transparently redial, re-handshake,
	// replay the camera, and return an identical frame.
	thin.rw.Close()
	fb2, err := thin.RequestFrame(ctx, 64, 64, "raw")
	if err != nil {
		t.Fatalf("frame after dead link: %v", err)
	}
	if *dials != 2 {
		t.Errorf("dial count %d, want 2 (initial + reconnect)", *dials)
	}
	if len(fb1.Color) != len(fb2.Color) {
		t.Fatal("frame sizes differ across reconnect")
	}
	diff := 0
	for i := range fb1.Color {
		if fb1.Color[i] != fb2.Color[i] {
			diff++
		}
	}
	if diff != 0 {
		t.Errorf("camera not replayed after reconnect: %d bytes differ", diff)
	}
}

// TestResilientThinRefusalPassesThrough: an application-level refusal is
// an answer on a healthy stream — no reconnect, typed error surfaced.
func TestResilientThinRefusalPassesThrough(t *testing.T) {
	_, dial, dials := resilientRenderService(t)
	policy := retry.DefaultPolicy()
	policy.BaseDelay = time.Millisecond
	thin, err := DialThinResilient(context.Background(), dial, "zaurus", "galleon", policy, vclock.Real{})
	if err != nil {
		t.Fatal(err)
	}
	defer thin.Close()

	_, err = thin.RequestFrame(context.Background(), -1, 10, "raw")
	var refused *RefusedError
	if !errors.As(err, &refused) {
		t.Fatalf("bad frame request = %v, want RefusedError", err)
	}
	if *dials != 1 {
		t.Errorf("refusal triggered a reconnect: %d dials", *dials)
	}
	// The same connection keeps serving.
	if _, err := thin.RequestFrame(context.Background(), 32, 32, "raw"); err != nil {
		t.Fatalf("connection broken after refusal: %v", err)
	}
}

// TestResilientThinDeclinePassesThrough: a typed decline is as much an
// answer on a healthy stream as a refusal. A request whose deadline has
// passed comes back as the decline with its reason, on the first
// connection — not as thousands of redials ending in "connection lost".
func TestResilientThinDeclinePassesThrough(t *testing.T) {
	_, dial, dials := resilientRenderService(t)
	policy := retry.DefaultPolicy()
	policy.BaseDelay = time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	thin, err := DialThinResilient(ctx, dial, "zaurus", "galleon", policy, vclock.Real{})
	if err != nil {
		t.Fatal(err)
	}
	defer thin.Close()

	err = thin.do(ctx, func(c *Thin) error {
		_, err := c.RequestFrameBy(32, 32, "raw", time.Now().Add(-time.Second))
		return err
	})
	var declined *renderservice.ErrOverloaded
	if !errors.As(err, &declined) || declined.Reason != admission.ReasonExpired {
		t.Fatalf("expired request = %v, want a decline with reason %q", err, admission.ReasonExpired)
	}
	if *dials != 1 {
		t.Errorf("decline triggered %d reconnects", *dials-1)
	}
}

// TestResilientThinDeltaAfterRedial: a redial is a new connection with no
// previous frame at either end, so the first delta-rle frame after one is
// the scene, not a delta against a frame the old connection was sent.
func TestResilientThinDeltaAfterRedial(t *testing.T) {
	rs, dial, _ := resilientRenderService(t)
	policy := retry.DefaultPolicy()
	policy.BaseDelay = time.Millisecond
	ctx := context.Background()
	thin, err := DialThinResilient(ctx, dial, "zaurus", "galleon", policy, vclock.Real{})
	if err != nil {
		t.Fatal(err)
	}
	defer thin.Close()
	for i := 0; i < 2; i++ {
		if _, err := thin.RequestFrame(ctx, 64, 64, "delta-rle"); err != nil {
			t.Fatal(err)
		}
	}
	thin.rw.Close()
	got, err := thin.RequestFrame(ctx, 64, 64, "delta-rle")
	if err != nil {
		t.Fatalf("frame after dead link: %v", err)
	}
	sess, _ := rs.SessionNamed("galleon")
	want, err := sess.RenderFrame(64, 64, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Color, want.FB.Color) {
		t.Error("the first delta-rle frame after a redial differs from a raw frame")
	}
}

// TestResilientThinRedialsOnRefusedFrame: a frame the Thin could not
// decode ends the connection, and ResilientThin redials and asks again.
func TestResilientThinRedialsOnRefusedFrame(t *testing.T) {
	full := make([]byte, 4*4*3)
	for i := range full {
		full[i] = byte(i)
	}
	dials := 0
	dial := func() (io.ReadWriteCloser, error) {
		dials++
		reply := sendFrame(imgcodec.RLE, full, nil, nil)
		if dials == 1 {
			reply = sendFrame(imgcodec.RLE, full, nil, func(enc []byte) { enc[9] = 0 })
		}
		cEnd, _ := scriptedRender(reply)
		return cEnd, nil
	}
	policy := retry.DefaultPolicy()
	policy.BaseDelay = time.Millisecond
	thin, err := DialThinResilient(context.Background(), dial, "zaurus", "s", policy, vclock.Real{})
	if err != nil {
		t.Fatal(err)
	}
	defer thin.Close()
	fb, err := thin.RequestFrame(context.Background(), 4, 4, "rle")
	if err != nil || !bytes.Equal(fb.Color, full) {
		t.Fatalf("frame = %v, want the second connection's frame", err)
	}
	if dials != 2 {
		t.Errorf("%d dials, want a redial after the undecodable frame", dials)
	}
}

// TestResilientThinGivesUp: when every dial fails, the retry budget is
// honored and the error wraps ErrConnectionLost.
func TestResilientThinGivesUp(t *testing.T) {
	attempts := 0
	dial := func() (io.ReadWriteCloser, error) {
		attempts++
		return nil, errors.New("network is down")
	}
	policy := retry.DefaultPolicy()
	policy.BaseDelay = time.Millisecond
	policy.MaxAttempts = 3
	_, err := DialThinResilient(context.Background(), dial, "z", "s", policy, vclock.Real{})
	if err == nil {
		t.Fatal("dial into the void succeeded")
	}
	if attempts != 3 {
		t.Errorf("dial attempts %d, want 3", attempts)
	}
}
