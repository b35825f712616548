package client

import (
	"bytes"
	"net"
	"testing"
	"time"

	"repro/internal/dataservice"
	"repro/internal/device"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
)

// startRenderWithSession returns a render service already holding a
// session, plus a thin client connected over net.Pipe.
func startRenderWithSession(t *testing.T) (*renderservice.Service, *Thin) {
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

	return rs, dialViewer(t, rs, "zaurus")
}

// dialViewer connects one more thin client to rs's session over its own
// net.Pipe, served on a slow link so the adaptive codec compresses.
func dialViewer(t *testing.T, rs *renderservice.Service, name string) *Thin {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	go rs.ServeClient(sEnd, 5e6)
	t.Cleanup(func() { cEnd.Close(); sEnd.Close() })
	thin, err := DialThin(cEnd, name, "galleon")
	if err != nil {
		t.Fatal(err)
	}
	return thin
}

// orbitAndCheck moves the shared camera a step along an orbit through
// thin and checks the frame thin then gets in codec (its i-th, for the
// failure message) against the service's own render of the session, byte
// for byte.
func orbitAndCheck(t *testing.T, rs *renderservice.Service, thin *Thin, i int, codec string) {
	t.Helper()
	sess, ok := rs.SessionNamed("galleon")
	if !ok {
		t.Fatal("session gone")
	}
	if err := thin.SetCamera(sess.Camera().Orbit(0.3, 0)); err != nil {
		t.Fatal(err)
	}
	got, err := thin.RequestFrame(96, 96, codec)
	if err != nil {
		t.Fatalf("frame %d (%s): %v", i, codec, err)
	}
	want, err := sess.RenderFrame(96, 96, "")
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for j := range want.FB.Color {
		if got.Color[j] != want.FB.Color[j] {
			diff++
		}
	}
	if diff != 0 {
		t.Fatalf("frame %d (%s): %d of %d bytes differ from a raw frame", i, codec, diff, len(want.FB.Color))
	}
}

// TestSecondViewerSeesTheScene: the previous frame a delta is against
// belongs to the connection, not to the session several viewers share. A
// collaborator joining a session someone is three frames into gets the
// scene — not the first viewer's delta decoded against nothing — and both
// stay right from then on.
func TestSecondViewerSeesTheScene(t *testing.T) {
	for _, codec := range []string{"delta-rle", "adaptive"} {
		rs, first := startRenderWithSession(t)
		for i := 0; i < 3; i++ {
			orbitAndCheck(t, rs, first, i, codec)
		}
		second := dialViewer(t, rs, "ipaq")
		orbitAndCheck(t, rs, second, 3, codec)
		orbitAndCheck(t, rs, first, 4, codec)
		orbitAndCheck(t, rs, second, 5, codec)
		first.Close()
		second.Close()
	}
}

// TestCodecChangeKeepsDeltaReference: a viewer's reference frame is the
// last one sent to it in any codec, which is what its decoder holds, so
// changing codec between frames under a moving camera costs nothing.
func TestCodecChangeKeepsDeltaReference(t *testing.T) {
	rs, thin := startRenderWithSession(t)
	defer thin.Close()
	for i, codec := range []string{"delta-rle", "adaptive", "delta-rle", "rle", "adaptive", "delta-rle"} {
		orbitAndCheck(t, rs, thin, 2*i, codec)
		orbitAndCheck(t, rs, thin, 2*i+1, "raw")
	}
}

// TestDeltaWithoutReferenceIsAnError: a delta that arrives when the
// client does not hold the frame it is a difference against is an error,
// not a picture; the client keeps what it held, and the connection and
// the next complete frame are good.
func TestDeltaWithoutReferenceIsAnError(t *testing.T) {
	rs, thin := startRenderWithSession(t)
	defer thin.Close()
	orbitAndCheck(t, rs, thin, 0, "delta-rle")
	for name, held := range map[string][]byte{"no frame": nil, "a frame of another size": make([]byte, 32*32*3)} {
		thin.prev = held // the service still holds its 96x96 reference
		if fb, err := thin.RequestFrame(96, 96, "delta-rle"); err == nil {
			t.Fatalf("holding %s: a delta decoded to a %dx%d frame with no error", name, fb.W, fb.H)
		}
		if len(thin.prev) != len(held) {
			t.Fatalf("holding %s: the refused delta replaced the held frame with %d bytes", name, len(thin.prev))
		}
		orbitAndCheck(t, rs, thin, 1, "raw")
		orbitAndCheck(t, rs, thin, 2, "delta-rle")
	}
}

func TestThinClientFrames(t *testing.T) {
	_, thin := startRenderWithSession(t)
	defer thin.Close()

	// Frames in each codec; delta depends on the previous decode.
	var last *raster.Framebuffer
	for _, codec := range []string{"raw", "rle", "delta-rle", "adaptive"} {
		fb, err := thin.RequestFrame(200, 200, codec)
		if err != nil {
			t.Fatalf("codec %s: %v", codec, err)
		}
		if fb.W != 200 || fb.H != 200 {
			t.Fatalf("size %dx%d", fb.W, fb.H)
		}
		if fb.SizeBytes() != 120000 {
			t.Fatalf("frame bytes: %d (paper: 120kB at 200x200x24bpp)", fb.SizeBytes())
		}
		if last != nil && !bytes.Equal(last.Color, fb.Color) {
			t.Fatalf("codec %s produced different pixels", codec)
		}
		last = fb
	}
}

func TestThinClientCameraChangesFrame(t *testing.T) {
	_, thin := startRenderWithSession(t)
	defer thin.Close()
	fb1, err := thin.RequestFrame(100, 100, "raw")
	if err != nil {
		t.Fatal(err)
	}
	// Move the camera far away: ship shrinks to (near) nothing.
	far := raster.DefaultCamera()
	far.Eye = mathx.V3(0, 0, 500)
	if err := thin.SetCamera(far); err != nil {
		t.Fatal(err)
	}
	fb2, err := thin.RequestFrame(100, 100, "raw")
	if err != nil {
		t.Fatal(err)
	}
	lit := func(fb *raster.Framebuffer) int {
		n := 0
		for i := 0; i < len(fb.Color); i += 3 {
			if fb.Color[i]|fb.Color[i+1]|fb.Color[i+2] != 0 {
				n++
			}
		}
		return n
	}
	if lit(fb2) >= lit(fb1) {
		t.Errorf("camera move had no effect: %d vs %d lit", lit(fb1), lit(fb2))
	}
}

func TestThinClientCapacity(t *testing.T) {
	_, thin := startRenderWithSession(t)
	defer thin.Close()
	rep, err := thin.Capacity()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PolysPerSecond != device.CentrinoLaptop.TriRate {
		t.Errorf("capacity: %+v", rep)
	}
}

func TestThinClientBadFrameRequest(t *testing.T) {
	_, thin := startRenderWithSession(t)
	defer thin.Close()
	if _, err := thin.RequestFrame(-1, 10, "raw"); err == nil {
		t.Error("bad size accepted")
	}
	// The connection survives the refused request.
	if _, err := thin.RequestFrame(32, 32, "raw"); err != nil {
		t.Fatalf("connection broken after refusal: %v", err)
	}
}

func TestDialThinRefusal(t *testing.T) {
	rs := renderservice.New(renderservice.Config{Name: "rs", Device: device.ZaurusPDA})
	cEnd, sEnd := net.Pipe()
	defer cEnd.Close()
	defer sEnd.Close()
	go rs.ServeClient(sEnd, 1e6)
	if _, err := DialThin(cEnd, "x", "missing"); err == nil {
		t.Error("refused session produced a client")
	}
}

func TestWritePNG(t *testing.T) {
	fb := raster.NewFramebuffer(8, 8)
	fb.Set(2, 2, 255, 128, 0)
	var buf bytes.Buffer
	if err := WritePNG(&buf, fb); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("\x89PNG")) {
		t.Error("not a PNG")
	}
}

func TestActiveClientLifecycle(t *testing.T) {
	ds := dataservice.New(dataservice.Config{Name: "data"})
	if _, err := ds.CreateSessionFromMesh("m", "m", genmodel.Elle(3000)); err != nil {
		t.Fatal(err)
	}
	a := NewActive("bob", device.CentrinoLaptop, 2)
	// Rendering before subscription fails cleanly.
	var pre bytes.Buffer
	if err := a.RenderPNG(&pre, 32, 32); err == nil {
		t.Error("render before subscribe accepted")
	}

	dsEnd, acEnd := net.Pipe()
	defer dsEnd.Close()
	defer acEnd.Close()
	go ds.ServeConn(dsEnd)
	ready := make(chan struct{})
	go a.Subscribe(acEnd, "m", func() { close(ready) })
	select {
	case <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("bootstrap timed out")
	}
	if a.Session() == nil {
		t.Fatal("no session after ready")
	}
	var png bytes.Buffer
	if err := a.RenderPNG(&png, 48, 48); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(png.Bytes(), []byte("\x89PNG")) {
		t.Error("active render not a PNG")
	}
}
