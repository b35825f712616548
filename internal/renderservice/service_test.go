package renderservice

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"image"
	"math"
	"net"
	"runtime"
	"testing"

	"repro/internal/device"
	"repro/internal/geom/genmodel"
	"repro/internal/imgcodec"
	"repro/internal/marshal"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/scene"
	"repro/internal/transport"
)

// testScene returns a small scene with one mesh and one avatar.
func testScene(t *testing.T) *scene.Scene {
	t.Helper()
	s := scene.New()
	mesh := genmodel.Galleon(2000)
	id := s.AllocID()
	err := s.ApplyOp(&scene.AddNodeOp{
		Parent: scene.RootID, ID: id, Name: "ship",
		Transform: mathx.Identity(), Payload: &scene.MeshPayload{Mesh: mesh},
	})
	if err != nil {
		t.Fatal(err)
	}
	aid := s.AllocID()
	err = s.ApplyOp(&scene.AddNodeOp{
		Parent: scene.RootID, ID: aid, Name: "avatar:bob",
		Transform: mathx.Translate(mathx.V3(0, 0, 6)),
		Payload:   &scene.AvatarPayload{User: "bob", Color: mathx.V3(1, 0, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testCamera(s *scene.Scene) raster.Camera {
	return raster.DefaultCamera().FitToBounds(s.Bounds(), mathx.V3(0.3, 0.2, 1))
}

func newService(name string) *Service {
	return New(Config{Name: name, Device: device.CentrinoLaptop, Workers: 2})
}

func TestOpenSessionSharing(t *testing.T) {
	svc := newService("rs")
	sc := testScene(t)
	cam := testCamera(sc)
	a, err := svc.OpenSession("skull", sc, cam)
	if err != nil {
		t.Fatal(err)
	}
	// Second user attaches to the same replica.
	b, err := svc.OpenSession("skull", nil, cam)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second open created a new replica")
	}
	if svc.SessionCount() != 1 {
		t.Errorf("sessions: %d", svc.SessionCount())
	}
	a.Close()
	if svc.SessionCount() != 1 {
		t.Error("replica dropped while still referenced")
	}
	b.Close()
	if svc.SessionCount() != 0 {
		t.Error("replica not dropped at zero refs")
	}
	// Opening without a snapshot when absent fails.
	if _, err := svc.OpenSession("skull", nil, cam); err == nil {
		t.Error("snapshot-less open of missing session accepted")
	}
	if _, err := svc.OpenSession("", sc, cam); err == nil {
		t.Error("empty session name accepted")
	}
}

func TestRenderFrameAndViewerFiltering(t *testing.T) {
	svc := newService("rs")
	sc := testScene(t)
	sess, err := svc.OpenSession("s", sc, testCamera(sc))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// bob does not see his own avatar; alice does see bob's.
	asBob, err := sess.RenderFrame(96, 96, "bob")
	if err != nil {
		t.Fatal(err)
	}
	asAlice, err := sess.RenderFrame(96, 96, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if asAlice.FB.CoveredPixels() <= asBob.FB.CoveredPixels() {
		t.Errorf("avatar filtering: alice %d <= bob %d pixels",
			asAlice.FB.CoveredPixels(), asBob.FB.CoveredPixels())
	}
	if asBob.Version != sc.Version {
		t.Errorf("frame version %d, scene %d", asBob.Version, sc.Version)
	}
	if asBob.DeviceTime <= 0 {
		t.Error("no modeled device time")
	}
	// Bad sizes refused.
	for _, wh := range [][2]int{{0, 10}, {10, 0}, {1 << 14, 10}} {
		if _, err := sess.RenderFrame(wh[0], wh[1], ""); err == nil {
			t.Errorf("size %v accepted", wh)
		}
	}
}

func TestApplyOpUpdatesReplica(t *testing.T) {
	svc := newService("rs")
	sc := testScene(t)
	sess, err := svc.OpenSession("s", sc, testCamera(sc))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	v0 := sess.Version()
	// Move the ship far away; the frame empties (except the avatar).
	err = sess.ApplyOp(&scene.SetTransformOp{ID: 2, Transform: mathx.Translate(mathx.V3(0, 0, -1e6))})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Version() != v0+1 {
		t.Error("version not bumped")
	}
	before, _ := sess.RenderFrame(64, 64, "bob")
	if before.FB.CoveredPixels() > 200 {
		t.Errorf("moved mesh still visible: %d pixels", before.FB.CoveredPixels())
	}
}

func TestRenderTileMatchesSubregion(t *testing.T) {
	svc := newService("rs")
	sc := testScene(t)
	sess, err := svc.OpenSession("s", sc, testCamera(sc))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	full, err := sess.RenderFrame(80, 60, "")
	if err != nil {
		t.Fatal(err)
	}
	rect := image.Rect(20, 10, 60, 50)
	tile, err := sess.RenderTile(rect, 80, 60)
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.FB.SubTile(rect)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Color {
		if want.Color[i] != tile.FB.Color[i] {
			t.Fatalf("tile differs from full render at byte %d", i)
		}
	}
	// Invalid tiles refused.
	if _, err := sess.RenderTile(image.Rect(0, 0, 100, 100), 80, 60); err == nil {
		t.Error("oversized tile accepted")
	}
	if _, err := sess.RenderTile(image.Rect(10, 10, 10, 20), 80, 60); err == nil {
		t.Error("zero-width tile accepted")
	}
}

func TestEncodeFrameCodecs(t *testing.T) {
	svc := newService("rs")
	sc := testScene(t)
	sess, err := svc.OpenSession("s", sc, testCamera(sc))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	frame, err := sess.RenderFrame(64, 64, "")
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	for _, codec := range []string{"", "raw", "rle", "delta-rle", "adaptive"} {
		enc, err := sess.EncodeFrame(frame, codec, 5e6)
		if err != nil {
			t.Fatalf("codec %q: %v", codec, err)
		}
		_, w, h, decoded, err := imgcodec.Decode(enc, prev)
		if err != nil {
			t.Fatalf("decode %q: %v", codec, err)
		}
		if w != 64 || h != 64 {
			t.Fatalf("codec %q size %dx%d", codec, w, h)
		}
		if !bytes.Equal(decoded, frame.FB.Color) {
			t.Fatalf("codec %q corrupted frame", codec)
		}
		prev = decoded
	}
	if _, err := sess.EncodeFrame(frame, "jpeg2000", 5e6); err == nil {
		t.Error("unknown codec accepted")
	}
}

func TestCapacityAndLoadReports(t *testing.T) {
	svc := newService("rs")
	cap0 := svc.Capacity()
	if cap0.CurrentWork != 0 || cap0.PolysPerSecond != device.CentrinoLaptop.TriRate {
		t.Errorf("idle capacity: %+v", cap0)
	}
	sc := testScene(t)
	sess, err := svc.OpenSession("s", sc, testCamera(sc))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	cap1 := svc.Capacity()
	if cap1.CurrentWork <= 0 {
		t.Error("loaded capacity reports no work")
	}
	// No frames yet: load report has no FPS.
	lr := svc.LoadReport()
	if lr.FPS != 0 {
		t.Errorf("fps before rendering: %v", lr.FPS)
	}
	if _, err := sess.RenderFrame(64, 64, ""); err != nil {
		t.Fatal(err)
	}
	lr = svc.LoadReport()
	if lr.FPS <= 0 || lr.Name != "rs" {
		t.Errorf("load report: %+v", lr)
	}
}

func TestRenderSceneOnce(t *testing.T) {
	svc := newService("rs")
	sc := testScene(t)
	fb, dt, err := svc.RenderSceneOnce(sc, testCamera(sc), 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if fb.CoveredPixels() == 0 || dt <= 0 {
		t.Error("once render empty or untimed")
	}
	if svc.SessionCount() != 0 {
		t.Error("once render leaked a session")
	}
	if _, _, err := svc.RenderSceneOnce(sc, testCamera(sc), -1, 5); err == nil {
		t.Error("bad size accepted")
	}
}

// startServeClient wires a service to a client-side conn over net.Pipe.
func startServeClient(t *testing.T, svc *Service) *transport.Conn {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	go svc.ServeClient(sEnd, 5e6)
	t.Cleanup(func() { cEnd.Close(); sEnd.Close() })
	return transport.NewConn(cEnd)
}

func TestServeClientProtocol(t *testing.T) {
	svc := newService("rs")
	sc := testScene(t)
	sess, err := svc.OpenSession("skull", sc, testCamera(sc))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	conn := startServeClient(t, svc)
	if err := conn.SendJSON(transport.MsgHello, transport.Hello{
		Role: "thin-client", Name: "zaurus", Session: "skull",
	}); err != nil {
		t.Fatal(err)
	}
	typ, _, err := conn.Receive()
	if err != nil || typ != transport.MsgOK {
		t.Fatalf("hello reply: %v %v", typ, err)
	}

	// Camera then frame.
	if err := conn.SendJSON(transport.MsgCameraUpdate, StateFromCamera(testCamera(sc))); err != nil {
		t.Fatal(err)
	}
	if err := conn.SendJSON(transport.MsgRender, transport.RenderRequest{X1: 50, Y1: 40, FullW: 50, FullH: 40, Codec: "rle"}); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := conn.Receive()
	if err != nil || typ != transport.MsgFrame {
		t.Fatalf("frame reply: %v %v", typ, err)
	}
	_, w, h, _, err := imgcodec.Decode(payload, nil)
	if err != nil || w != 50 || h != 40 {
		t.Fatalf("frame decode: %dx%d %v", w, h, err)
	}

	// Capacity interrogation.
	if err := conn.Send(transport.MsgCapacityQuery, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = conn.Receive()
	if err != nil || typ != transport.MsgCapacityReport {
		t.Fatalf("capacity reply: %v %v", typ, err)
	}
	var rep transport.CapacityReport
	if err := transport.DecodeJSON(payload, &rep); err != nil || rep.Name != "rs" {
		t.Fatalf("capacity: %+v %v", rep, err)
	}

	// A region of the frame is the same request; a viewer gets it encoded.
	err = conn.SendJSON(transport.MsgRender, transport.RenderRequest{
		X0: 0, Y0: 0, X1: 25, Y1: 20, FullW: 50, FullH: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	typ, payload, err = conn.Receive()
	if err != nil || typ != transport.MsgFrame {
		t.Fatalf("region reply: %v %v", typ, err)
	}
	if _, w, h, _, err := imgcodec.Decode(payload, nil); err != nil || w != 25 || h != 20 {
		t.Fatalf("region decode: %dx%d %v", w, h, err)
	}

	// Bad frame request produces an error message, not a dropped conn.
	if err := conn.SendJSON(transport.MsgRender, transport.RenderRequest{X1: -5, Y1: 2, FullW: -5, FullH: 2}); err != nil {
		t.Fatal(err)
	}
	typ, _, err = conn.Receive()
	if err != nil || typ != transport.MsgError {
		t.Fatalf("bad request reply: %v %v", typ, err)
	}

	if err := conn.Send(transport.MsgBye, nil); err != nil {
		t.Fatal(err)
	}
}

func TestServeClientUnknownSession(t *testing.T) {
	svc := newService("rs")
	conn := startServeClient(t, svc)
	if err := conn.SendJSON(transport.MsgHello, transport.Hello{
		Role: "thin-client", Name: "x", Session: "nope",
	}); err != nil {
		t.Fatal(err)
	}
	_, err := conn.Expect(transport.MsgOK)
	var refusal *transport.Refusal
	if !errors.As(err, &refusal) || refusal.Message == "" {
		t.Errorf("want a refusal with an explanatory message, got %v", err)
	}
}

func TestServeClientPeerSubsetWithoutSession(t *testing.T) {
	svc := newService("helper")
	sc := testScene(t)
	conn := startServeClient(t, svc)
	if err := conn.SendJSON(transport.MsgHello, transport.Hello{
		Role: "peer", Name: "data", Session: "not-held",
	}); err != nil {
		t.Fatal(err)
	}
	typ, _, err := conn.Receive()
	if err != nil || typ != transport.MsgOK {
		t.Fatalf("peer hello: %v %v", typ, err)
	}
	// Subset render works statelessly: the request names the camera and
	// the scene follows.
	cam := StateFromCamera(testCamera(sc))
	subset := transport.RenderRequest{X1: 40, Y1: 30, FullW: 40, FullH: 30, Camera: &cam}
	if err := conn.SendJSON(transport.MsgRender, subset); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := marshal.WriteScene(&buf, sc); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(transport.MsgSceneSnapshot, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	payload, err := conn.Expect(transport.MsgFrameDepth)
	if err != nil {
		t.Fatalf("subset reply: %v", err)
	}
	version, frame, err := transport.UnpackVersioned(payload)
	if err != nil || version != 0 {
		t.Fatalf("subset reply carries version %d, %v; want 0 for a scene the peer sent", version, err)
	}
	fb, err := marshal.ReadFrame(bytes.NewReader(frame))
	if err != nil || fb.CoveredPixels() == 0 {
		t.Fatalf("subset frame empty: %v", err)
	}
	// But the same request without a camera (needs the replica) is refused
	// gracefully.
	subset.Camera = nil
	if err := conn.SendJSON(transport.MsgRender, subset); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Expect(transport.MsgFrameDepth); !errors.As(err, new(*transport.Refusal)) {
		t.Fatalf("session-less render request: %v", err)
	}
}

// TestSameRequestTwoRoles: the hello's role, not the request, says who is
// asking. A thin client and a peer send the same MsgRender; the viewer
// gets MsgFrame in the codec it asked for, the peer MsgFrameDepth with
// the replica's scene version in front of the pixels — and they show the
// same picture.
func TestSameRequestTwoRoles(t *testing.T) {
	svc := newService("rs")
	sc := testScene(t)
	sess, err := svc.OpenSession("skull", sc, testCamera(sc))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	req := transport.RenderRequest{X0: 8, Y0: 4, X1: 40, Y1: 28, FullW: 48, FullH: 32, Codec: "rle"}
	ask := func(role string, want transport.MsgType) []byte {
		conn := startServeClient(t, svc)
		if err := conn.Greet(transport.Hello{Role: role, Name: role, Session: "skull"}); err != nil {
			t.Fatal(err)
		}
		if err := conn.SendJSON(transport.MsgRender, req); err != nil {
			t.Fatal(err)
		}
		payload, err := conn.Expect(want)
		if err != nil {
			t.Fatalf("%s: %v", role, err)
		}
		return payload
	}
	codec, w, h, viewed, err := imgcodec.Decode(ask("thin-client", transport.MsgFrame), nil)
	if err != nil || codec != imgcodec.RLE || w != 32 || h != 24 {
		t.Fatalf("viewer's frame: %v %dx%d, %v", codec, w, h, err)
	}
	version, frame, err := transport.UnpackVersioned(ask("peer", transport.MsgFrameDepth))
	if err != nil || version != sess.Version() {
		t.Fatalf("peer's frame shows version %d, %v; replica is at %d", version, err, sess.Version())
	}
	fb, err := marshal.DecodeFrame(frame)
	if err != nil || fb.W != 32 || fb.H != 24 {
		t.Fatalf("peer's frame: %v", err)
	}
	if !bytes.Equal(fb.Color, viewed) {
		t.Error("the two roles were shown different pixels")
	}
}

func TestCameraStateRoundTrip(t *testing.T) {
	cam := raster.Camera{
		Eye:    mathx.V3(1, 2, 3),
		Target: mathx.V3(4, 5, 6),
		Up:     mathx.V3(0, 1, 0),
		FovY:   0.7,
		Near:   0.5,
		Far:    500,
	}
	got := CameraFromState(StateFromCamera(cam))
	if got != cam {
		t.Errorf("round trip: %+v", got)
	}
	// Degenerate wire cameras get sane defaults.
	fixed := CameraFromState(transport.CameraState{})
	if fixed.FovY <= 0 || fixed.Near <= 0 || fixed.Far <= fixed.Near || fixed.Up == (mathx.Vec3{}) {
		t.Errorf("defaults: %+v", fixed)
	}
}

// TestFrustumCullingSkipsOffscreenNodes verifies whole nodes outside the
// view cost nothing at the rasterizer.
func TestFrustumCullingSkipsOffscreenNodes(t *testing.T) {
	svc := newService("cull")
	sc := scene.New()
	mesh := genmodel.Galleon(2000)
	onID := sc.AllocID()
	if err := sc.ApplyOp(&scene.AddNodeOp{
		Parent: scene.RootID, ID: onID, Name: "visible",
		Transform: mathx.Identity(), Payload: &scene.MeshPayload{Mesh: mesh},
	}); err != nil {
		t.Fatal(err)
	}
	// A second copy far behind the camera.
	offID := sc.AllocID()
	if err := sc.ApplyOp(&scene.AddNodeOp{
		Parent: scene.RootID, ID: offID, Name: "hidden",
		Transform: mathx.Translate(mathx.V3(0, 0, 1e5)),
		Payload:   &scene.MeshPayload{Mesh: mesh.Clone()},
	}); err != nil {
		t.Fatal(err)
	}
	cam := raster.DefaultCamera().FitToBounds(mesh.Bounds(), mathx.V3(0.3, 0.2, 1))
	sess, err := svc.OpenSession("s", sc, cam)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	both, err := sess.RenderFrame(64, 64, "")
	if err != nil {
		t.Fatal(err)
	}
	// Remove the hidden node: the visible image must be identical (the
	// culled node never contributed).
	if err := sess.ApplyOp(&scene.RemoveNodeOp{ID: offID}); err != nil {
		t.Fatal(err)
	}
	only, err := sess.RenderFrame(64, 64, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := range both.FB.Color {
		if both.FB.Color[i] != only.FB.Color[i] {
			t.Fatal("culled node changed pixels")
		}
	}
	// And the modeled cost with the hidden node present equals the
	// visible-only cost (culling means its triangles were never charged).
	if both.DeviceTime != only.DeviceTime {
		t.Errorf("culled node charged device time: %v vs %v", both.DeviceTime, only.DeviceTime)
	}
}

// TestPeerKeepsItsBufferCleared: after every reply to a peer, the buffer
// its connection draws into is bitwise a fresh one of its size — across
// jobs whose rectangle changes size, a decline, and pixels drawn as NaN,
// -0 or +Inf with colour, which a scene does not produce and so are
// planted — and every reply is the frame a fresh buffer would have sent.
func TestPeerKeepsItsBufferCleared(t *testing.T) {
	svc := newService("rs")
	sc := testScene(t)
	sess, err := svc.OpenSession("skull", sc, testCamera(sc))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	cEnd, sEnd := net.Pipe()
	t.Cleanup(func() { cEnd.Close(); sEnd.Close() })
	v := &viewer{svc: svc, conn: transport.NewConn(sEnd), hello: transport.Hello{Role: "peer", Session: "skull"}}
	client := transport.NewConn(cEnd)
	// exchange runs one server-side step against the client's read.
	exchange := func(step func() error) ([]byte, error) {
		done := make(chan error, 1)
		go func() { done <- step() }()
		payload, err := client.Expect(transport.MsgFrameDepth)
		if serr := <-done; serr != nil {
			t.Fatal(serr)
		}
		return payload, err
	}
	kept := func(what string) {
		t.Helper()
		if v.fb == nil {
			t.Fatalf("%s: no buffer kept", what)
		}
		if i := firstDiff(v.fb, raster.NewFramebuffer(v.fb.W, v.fb.H)); i >= 0 {
			t.Fatalf("%s: kept buffer not cleared at pixel %d", what, i)
		}
	}

	for _, req := range []transport.RenderRequest{
		{X1: 48, Y1: 32, FullW: 48, FullH: 32},
		{X0: 8, Y0: 4, X1: 40, Y1: 28, FullW: 48, FullH: 32},
		{X0: 8, Y0: 4, X1: 40, Y1: 28, FullW: 48, FullH: 32, DeadlineNanos: 1},
		{X0: 8, Y0: 4, X1: 40, Y1: 28, FullW: 48, FullH: 32},
		{X1: 48, Y1: 32, FullW: 48, FullH: 32},
	} {
		rect := image.Rect(req.X0, req.Y0, req.X1, req.Y1)
		body, _ := json.Marshal(req)
		payload, err := exchange(func() error { return v.render(body) })
		if req.DeadlineNanos != 0 {
			var ov *ErrOverloaded
			if !errors.As(err, &ov) {
				t.Fatalf("expired job: %v, want a decline", err)
			}
			kept("after a decline")
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		_, frame, _ := transport.UnpackVersioned(payload)
		got, err := marshal.DecodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sess.RenderTile(rect, req.FullW, req.FullH)
		if err != nil {
			t.Fatal(err)
		}
		if got.W != rect.Dx() || got.H != rect.Dy() || firstDiff(got, want.FB) >= 0 || got.CoveredPixels() == 0 {
			t.Fatalf("%v: the reply is not the job's frame", rect)
		}
		kept(rect.String())
	}

	nan, negZero, inf := float32(math.NaN()), float32(math.Copysign(0, -1)), float32(math.Inf(1))
	drawn := raster.NewFramebuffer(37, 5)
	drawn.Depth[40], drawn.Depth[41], drawn.Depth[100] = nan, negZero, nan
	drawn.Set(5, 1, 0, 0, 1)
	drawn.Depth[60], drawn.Color[3*60+1] = inf, 200
	drawn.Plot(36, 4, 0.5, 1, 2, 3)
	sent := drawn.Clone()
	payload, err := exchange(func() error { return v.replyPeer(&Frame{FB: drawn}) })
	if err != nil {
		t.Fatal(err)
	}
	_, frame, _ := transport.UnpackVersioned(payload)
	if got, err := marshal.DecodeFrame(frame); err != nil || firstDiff(got, sent) >= 0 {
		t.Fatalf("planted pixels sent wrong: %v", err)
	}
	kept("after NaN, -0 and +Inf-with-colour pixels")
}

// TestThinViewerKeepsItsBufferCleared: a thin viewer's connection keeps
// the buffer its frames are drawn into, so a pixel left from the frame
// before would show in the next one. One viewer pulls delta frames while
// the camera pans the ship out of the frame, across a size change and
// back and a declined request, and every frame it decodes is the frame a
// fresh buffer draws for its camera, pixel for pixel. A frame of the
// kept size allocates no buffer.
func TestThinViewerKeepsItsBufferCleared(t *testing.T) {
	svc := newService("rs")
	sc := testScene(t)
	ship := genmodel.Galleon(2000).Bounds()
	base := raster.DefaultCamera().FitToBounds(ship, mathx.V3(0.3, 0.2, 1))
	sess, err := svc.OpenSession("skull", sc, base)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	conn := startServeClient(t, svc)
	if err := conn.Greet(transport.Hello{Role: "thin-client", Name: "zaurus", Session: "skull"}); err != nil {
		t.Fatal(err)
	}
	// pan is the camera framing the ship moved k quarters of the ship's
	// diagonal to its right, which moves the ship out of the frame's left.
	right := base.Target.Sub(base.Eye).Cross(base.Up).Normalize()
	pan := func(k float64) raster.Camera {
		c := base
		shift := right.Scale(k * ship.Diagonal() / 4)
		c.Eye, c.Target = c.Eye.Add(shift), c.Target.Add(shift)
		return c
	}
	var prev []byte
	// pull asks for a w x h frame under cam and returns the reply's
	// encoding, checking that the frame decodes to the reference; a
	// decline is returned as its error.
	pull := func(cam raster.Camera, w, h int, deadline int64) ([]byte, error) {
		t.Helper()
		if err := conn.SendJSON(transport.MsgCameraUpdate, StateFromCamera(cam)); err != nil {
			t.Fatal(err)
		}
		req := transport.RenderRequest{X1: w, Y1: h, FullW: w, FullH: h, Codec: "delta-rle", DeadlineNanos: deadline}
		if err := conn.SendJSON(transport.MsgRender, req); err != nil {
			t.Fatal(err)
		}
		return conn.Expect(transport.MsgFrame)
	}
	check := func(what string, cam raster.Camera, w, h int, enc []byte) {
		t.Helper()
		_, _, _, got, err := imgcodec.Decode(enc, prev)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		prev = got
		want, _, err := svc.RenderSceneOnce(sc, cam, w, h)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Color) {
			i := 0
			for got[i] == want.Color[i] {
				i++
			}
			t.Fatalf("%s: decoded frame differs from a fresh buffer's at pixel %d", what, i/3)
		}
	}

	for i, step := range []struct {
		pan     float64
		w, h    int
		decline bool
	}{
		{0, 64, 48, false},
		{0.5, 64, 48, false},
		{1, 64, 48, true},
		{1, 64, 48, false},
		{1.5, 40, 30, false},
		{2, 64, 48, false},
		{3, 64, 48, false},
		{0, 64, 48, false},
	} {
		what := fmt.Sprintf("step %d (pan %v, %dx%d)", i, step.pan, step.w, step.h)
		cam := pan(step.pan)
		if step.decline {
			if _, err := pull(cam, step.w, step.h, 1); !errors.As(err, new(*ErrOverloaded)) {
				t.Fatalf("%s: %v, want a decline", what, err)
			}
			continue
		}
		enc, err := pull(cam, step.w, step.h, 0)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		check(what, cam, step.w, step.h, enc)
	}

	// At the thin client's 400x400 the buffer is 1.1 MB; once it is kept,
	// a frame of that size allocates its encoding and its message, a
	// fraction of that.
	const w, h = 400, 400
	bufBytes := uint64(w * h * (3 + 4))
	for i, k := range []float64{0, 0.25, 0.5} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		enc, err := pull(pan(k), w, h, 0)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("%dx%d frame %d", w, h, i), pan(k), w, h, enc)
		grew := after.TotalAlloc - before.TotalAlloc
		switch {
		case i == 0 && grew < bufBytes:
			t.Fatalf("the first %dx%d frame allocated %d bytes, less than its buffer: nothing measured", w, h, grew)
		case i > 0 && grew > bufBytes/2:
			t.Errorf("%dx%d frame %d allocated %d bytes; its buffer is %d and kept", w, h, i, grew, bufBytes)
		}
	}
}
