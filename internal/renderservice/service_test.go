package renderservice

import (
	"bytes"
	"errors"
	"image"
	"net"
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
