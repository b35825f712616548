package dataservice

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/compositor"
	"repro/internal/device"
	"repro/internal/geom/genmodel"
	"repro/internal/geom/objply"
	"repro/internal/marshal"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/uddi"
	"repro/internal/vclock"
	"repro/internal/wsdl"
)

// recordingSub captures fan-out traffic.
type recordingSub struct {
	mu      sync.Mutex
	ops     []scene.Op
	cameras []transport.CameraState
	fail    bool
}

func (r *recordingSub) SendUpdate(u Update) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail {
		return errors.New("sub down")
	}
	r.ops = append(r.ops, u.Op)
	return nil
}

func (r *recordingSub) SendCamera(cam transport.CameraState) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail {
		return errors.New("sub down")
	}
	r.cameras = append(r.cameras, cam)
	return nil
}

func (r *recordingSub) counts() (int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops), len(r.cameras)
}

func TestCreateSessionLifecycle(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess, err := svc.CreateSession("skull")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateSession("skull"); err == nil {
		t.Error("duplicate session accepted")
	}
	if _, err := svc.CreateSession(""); err == nil {
		t.Error("empty name accepted")
	}
	got, ok := svc.Session("skull")
	if !ok || got != sess {
		t.Error("session lookup failed")
	}
	if _, ok := svc.Session("nope"); ok {
		t.Error("found missing session")
	}
	if names := svc.SessionNames(); len(names) != 1 || names[0] != "skull" {
		t.Errorf("names: %v", names)
	}
}

func TestCreateSessionFromOBJ(t *testing.T) {
	svc := New(Config{Name: "data"})
	mesh := genmodel.Galleon(1500)
	var buf bytes.Buffer
	if err := objply.WriteOBJ(&buf, mesh); err != nil {
		t.Fatal(err)
	}
	sess, err := svc.CreateSessionFromOBJ("galleon", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var cost scene.Cost
	sess.Scene(func(sc *scene.Scene) { cost = sc.TotalCost() })
	if cost.Triangles != mesh.TriangleCount() {
		t.Errorf("imported triangles: %d, want %d", cost.Triangles, mesh.TriangleCount())
	}
	// Camera framed on the data.
	cam := sess.Camera()
	if cam.Eye == ([3]float64{}) {
		t.Error("camera not fitted")
	}
	// Invalid OBJ.
	if _, err := svc.CreateSessionFromOBJ("bad", strings.NewReader("v 1 2\nf 1 1 1")); err == nil {
		t.Error("bad OBJ accepted")
	}
}

func TestApplyUpdateFanOutExcludesOrigin(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess, _ := svc.CreateSession("s")
	a, b := &recordingSub{}, &recordingSub{}
	if _, err := sess.Subscribe("a", a); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Subscribe("b", b); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Subscribe("a", a); err == nil {
		t.Error("duplicate subscriber accepted")
	}
	if _, err := sess.Subscribe("", a); err == nil {
		t.Error("empty subscriber name accepted")
	}

	op := &scene.AddNodeOp{Parent: scene.RootID, ID: sess.AllocID(), Name: "n", Transform: mathx.Identity()}
	if err := sess.ApplyUpdate(op, "a"); err != nil {
		t.Fatal(err)
	}
	aOps, _ := a.counts()
	bOps, _ := b.counts()
	if aOps != 0 {
		t.Error("origin received its own op")
	}
	if bOps != 1 {
		t.Errorf("other subscriber got %d ops", bOps)
	}
	if sess.Version() != 1 {
		t.Errorf("version: %d", sess.Version())
	}

	// Failed op does not fan out.
	bad := &scene.RemoveNodeOp{ID: 999}
	if err := sess.ApplyUpdate(bad, ""); err == nil {
		t.Error("bad op accepted")
	}
	if got, _ := b.counts(); got != 1 {
		t.Error("failed op fanned out")
	}

	// Subscriber failure reported but does not prevent others.
	a.fail = true
	op2 := &scene.SetNameOp{ID: op.ID, Name: "renamed"}
	err := sess.ApplyUpdate(op2, "")
	if err == nil {
		t.Error("fan-out failure not reported")
	}
	if got, _ := b.counts(); got != 2 {
		t.Error("healthy subscriber starved by failing one")
	}

	// The failed delivery cut the failing subscriber out of the fan-out.
	if names := sess.SubscriberNames(); len(names) != 1 || names[0] != "b" {
		t.Errorf("subscribers: %v", names)
	}
}

func TestSetCameraFanOut(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess, _ := svc.CreateSession("s")
	a, b := &recordingSub{}, &recordingSub{}
	sess.Subscribe("a", a)
	sess.Subscribe("b", b)
	cam := transport.CameraState{Eye: [3]float64{1, 2, 3}, FovY: 0.7}
	if err := sess.SetCamera(cam, "b"); err != nil {
		t.Fatal(err)
	}
	if _, n := a.counts(); n != 1 {
		t.Error("camera not fanned to a")
	}
	if _, n := b.counts(); n != 0 {
		t.Error("camera echoed to origin")
	}
	if got := sess.Camera(); got.Eye != cam.Eye {
		t.Errorf("camera state: %+v", got)
	}
}

func TestAuditRecordReplay(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1_000_000, 0))
	svc := New(Config{Name: "data", Clock: clk})
	sess, _ := svc.CreateSession("s")
	// Seed a node before recording starts: it lands in the base snapshot.
	id0 := sess.AllocID()
	if err := sess.ApplyUpdate(&scene.AddNodeOp{Parent: scene.RootID, ID: id0, Name: "pre", Transform: mathx.Identity()}, ""); err != nil {
		t.Fatal(err)
	}

	var trail bytes.Buffer
	if err := sess.StartRecording(&trail); err != nil {
		t.Fatal(err)
	}
	if err := sess.StartRecording(&trail); err == nil {
		t.Error("double recording accepted")
	}

	id1 := sess.AllocID()
	ops := []scene.Op{
		&scene.AddNodeOp{Parent: scene.RootID, ID: id1, Name: "during", Transform: mathx.Identity()},
		&scene.SetTransformOp{ID: id1, Transform: mathx.Translate(mathx.V3(1, 2, 3))},
		&scene.SetNameOp{ID: id0, Name: "renamed"},
	}
	for _, op := range ops {
		clk.Advance(time.Second)
		if err := sess.ApplyUpdate(op, ""); err != nil {
			t.Fatal(err)
		}
	}
	sess.StopRecording()
	// Post-recording changes are not in the trail.
	if err := sess.ApplyUpdate(&scene.RemoveNodeOp{ID: id1}, ""); err != nil {
		t.Fatal(err)
	}

	rec, err := ReadRecording(bytes.NewReader(trail.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Ops) != 3 {
		t.Fatalf("recorded ops: %d", len(rec.Ops))
	}
	// Timestamps strictly increasing per the virtual clock.
	if !rec.Ops[1].At.After(rec.Ops[0].At) || !rec.Ops[2].At.After(rec.Ops[1].At) {
		t.Error("timestamps not increasing")
	}
	final, err := rec.Scene()
	if err != nil {
		t.Fatal(err)
	}
	if final.Node(id1) == nil {
		t.Error("replayed scene missing recorded node")
	}
	if final.Node(id0).Name != "renamed" {
		t.Error("replayed rename lost")
	}

	// Asynchronous collaboration: load the recording as a new session and
	// append to it.
	sess2, err := svc.CreateSessionFromRecording("replayed", bytes.NewReader(trail.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	id2 := sess2.AllocID()
	err = sess2.ApplyUpdate(&scene.AddNodeOp{Parent: scene.RootID, ID: id2, Name: "later", Transform: mathx.Identity()}, "")
	if err != nil {
		t.Fatalf("append to replayed session: %v", err)
	}
}

func TestAuditReadErrors(t *testing.T) {
	if _, err := ReadRecording(bytes.NewReader([]byte("shrt"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadRecording(bytes.NewReader(nil)); err == nil {
		t.Error("empty accepted")
	}
	// Valid header then truncated op.
	svc := New(Config{Name: "d"})
	sess, _ := svc.CreateSession("s")
	var trail bytes.Buffer
	if err := sess.StartRecording(&trail); err != nil {
		t.Fatal(err)
	}
	if err := sess.ApplyUpdate(&scene.AddNodeOp{Parent: scene.RootID, ID: sess.AllocID(), Transform: mathx.Identity()}, ""); err != nil {
		t.Fatal(err)
	}
	data := trail.Bytes()
	if _, err := ReadRecording(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Error("truncated trail accepted")
	}
}

// localHandle adapts an in-process render service for distribution tests
// (mirrors core.LocalHandle without the import cycle).
type localHandle struct{ svc *renderservice.Service }

func (h *localHandle) Name() string { return h.svc.Name() }
func (h *localHandle) Capacity() (transport.CapacityReport, error) {
	return h.svc.Capacity(), nil
}
func (h *localHandle) Render(job RenderJob) (compositor.Tile, error) {
	frame, err := h.svc.Render(job)
	if err != nil {
		return compositor.Tile{}, err
	}
	return compositor.Tile{Rect: job.Rect, FB: frame.FB}, nil
}

func newRender(name string, prof device.Profile) *renderservice.Service {
	return renderservice.New(renderservice.Config{Name: name, Device: prof, Workers: 2})
}

// multiMeshSession builds a session whose mesh is split into n nodes.
func multiMeshSession(t *testing.T, svc *Service, n int) *Session {
	t.Helper()
	sess, err := svc.CreateSession("dist")
	if err != nil {
		t.Fatal(err)
	}
	full := genmodel.Elle(12000)
	pieces := full.SplitSpatially(n)
	for i, p := range pieces {
		if _, err := sess.AddMesh("piece", p, mathx.Identity()); err != nil {
			t.Fatalf("piece %d: %v", i, err)
		}
	}
	cam := raster.DefaultCamera().FitToBounds(full.Bounds(), mathx.V3(0.3, 0.2, 1))
	sess.SetCamera(cameraState(cam), "")
	return sess
}

func TestDistributeAndRenderDistributed(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess := multiMeshSession(t, svc, 4)
	d := sess.NewDistributor(balance.DefaultThresholds())
	sess.AttachDistributor(d)

	rs1 := newRender("rs1", device.CentrinoLaptop)
	rs2 := newRender("rs2", device.AthlonDesktop)
	if err := d.AddService(&localHandle{rs1}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddService(&localHandle{rs2}); err != nil {
		t.Fatal(err)
	}
	if got := d.ServiceNames(); len(got) != 2 {
		t.Fatalf("services: %v", got)
	}

	asg, err := d.Distribute()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ids := range asg {
		total += len(ids)
	}
	if total != 4 {
		t.Fatalf("assigned %d of 4 nodes: %v", total, asg)
	}

	// Distributed render equals a single whole-scene render.
	combined, _, err := d.Render(context.Background(), FrameRequest{W: 96, H: 96, Mode: Subsets})
	if err != nil {
		t.Fatal(err)
	}
	whole, _, err := rs1.RenderSceneOnce(sess.Snapshot(), renderservice.CameraFromState(sess.Camera()), 96, 96)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range whole.Color {
		if whole.Color[i] != combined.Color[i] {
			diff++
		}
	}
	if frac := float64(diff) / float64(len(whole.Color)); frac > 0.01 {
		t.Errorf("distributed render differs on %.2f%% of bytes", frac*100)
	}
}

// TestBadFrameSizeFailsNoService: a frame no service would draw — either
// side zero, negative or past the 8192 limit — is refused before it is
// planned, in every mode. No service is asked to render it, none is
// failed for refusing it, and the next frame renders on the same plan.
func TestBadFrameSizeFailsNoService(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess := multiMeshSession(t, svc, 4)
	d := sess.NewDistributor(balance.DefaultThresholds())
	rs1, rs2 := newRender("rs1", device.AthlonDesktop), newRender("rs2", device.AthlonDesktop)
	for _, rs := range []*renderservice.Service{rs1, rs2} {
		if err := d.AddService(&localHandle{rs}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Distribute(); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Tiles, Subsets, Slabs} {
		for _, size := range [][2]int{{0, 0}, {9000, 10}, {-1, 5}} {
			req := FrameRequest{W: size[0], H: size[1], Mode: mode, Opacity: 1}
			if _, _, err := d.Render(context.Background(), req); err == nil {
				t.Errorf("mode %d: a %dx%d frame rendered", mode, size[0], size[1])
			}
		}
	}
	if failed := failedOf(d, "rs1", "rs2"); len(failed) != 0 {
		t.Errorf("failed for a bad request: %v", failed)
	}
	for _, rs := range []*renderservice.Service{rs1, rs2} {
		if admitted, _ := rs.AdmissionStats(); admitted != 0 {
			t.Errorf("%s admitted %d renders of a bad size", rs.Name(), admitted)
		}
	}
	if asg := d.Assignment(); len(asg) != 2 {
		t.Errorf("assignment after bad frames: %v", asg)
	}
	if fb, _, err := d.Render(context.Background(), FrameRequest{W: 64, H: 64, Mode: Subsets}); err != nil || fb.CoveredPixels() == 0 {
		t.Errorf("the frame after the bad ones: %v", err)
	}
}

func TestDistributeInsufficientThenRecruit(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess := multiMeshSession(t, svc, 3)
	d := sess.NewDistributor(balance.DefaultThresholds())

	// The PDA cannot hold Elle.
	weak := newRender("pda", device.ZaurusPDA)
	if err := d.AddService(&localHandle{weak}); err != nil {
		t.Fatal(err)
	}
	_, err := d.Distribute()
	var ie *balance.ErrInsufficient
	if !errors.As(err, &ie) {
		t.Fatalf("want ErrInsufficient, got %v", err)
	}

	// Stand up a UDDI registry advertising a capable render service.
	reg := uddi.NewRegistry()
	ts := httptest.NewServer(uddi.NewServer(reg))
	defer ts.Close()
	proxy := uddi.Connect(ts.URL)
	onyx := newRender("onyx", device.SGIOnyx)
	if _, err := proxy.RegisterService("RAVE", "onyx", "local://onyx", wsdl.RenderServicePortType); err != nil {
		t.Fatal(err)
	}

	recruited, err := d.Recruit(proxy, func(ap string) (RenderHandle, error) {
		if ap != "local://onyx" {
			return nil, errors.New("unknown access point")
		}
		return &localHandle{onyx}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recruited) != 1 || recruited[0] != "onyx" {
		t.Fatalf("recruited: %v", recruited)
	}
	// Distribution now succeeds.
	if _, err := d.Distribute(); err != nil {
		t.Fatalf("post-recruitment distribute: %v", err)
	}
	// Recruiting again finds nothing new.
	if _, err := d.Recruit(proxy, func(ap string) (RenderHandle, error) {
		return &localHandle{onyx}, nil
	}); err == nil {
		t.Error("re-recruitment reported success with no new services")
	}
}

func TestMigrationViaLoadReports(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess := multiMeshSession(t, svc, 4)
	th := balance.DefaultThresholds()
	th.UnderloadedFor = 2
	d := sess.NewDistributor(th)
	sess.AttachDistributor(d)

	slow := newRender("slow", device.CentrinoLaptop)
	fast := newRender("fast", device.SGIOnyx)
	d.AddService(&localHandle{slow})
	d.AddService(&localHandle{fast})
	if _, err := d.Distribute(); err != nil {
		t.Fatal(err)
	}

	// Feed load reports through the session (the socket path).
	sess.handleLoadReport(transport.LoadReport{Name: "slow", FPS: 4}) // overloaded
	sess.handleLoadReport(transport.LoadReport{Name: "fast", FPS: 60})
	sess.handleLoadReport(transport.LoadReport{Name: "fast", FPS: 60})

	before := d.Assignment()
	moves := d.PlanMigration()
	if len(before["slow"]) > 0 && len(moves) == 0 {
		t.Fatal("no migration planned for overloaded service")
	}
	after := d.Assignment()
	totalBefore := len(before["slow"]) + len(before["fast"])
	totalAfter := len(after["slow"]) + len(after["fast"])
	if totalBefore != totalAfter {
		t.Errorf("migration lost nodes: %d -> %d", totalBefore, totalAfter)
	}
	for _, mv := range moves {
		if mv.From != "slow" || mv.To != "fast" {
			t.Errorf("move direction: %+v", mv)
		}
	}
	// The distributed render still works after migration.
	if _, _, err := d.Render(context.Background(), FrameRequest{W: 64, H: 64, Mode: Subsets}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanTiles(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess := multiMeshSession(t, svc, 2)
	d := sess.NewDistributor(balance.DefaultThresholds())
	d.AddService(&localHandle{newRender("fast", device.SGIOnyx)})
	d.AddService(&localHandle{newRender("slow", device.CentrinoLaptop)})
	tiles, err := d.PlanTiles(200, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiles) != 2 {
		t.Fatalf("tiles: %v", tiles)
	}
	if tiles["fast"].Dy() <= tiles["slow"].Dy() {
		t.Error("tile areas not proportional to speed")
	}
}

// TestDistributeReturnsCopy: the assignment Distribute returns is the
// caller's own. Failing a service afterwards rewrites the distributor's
// live assignment under its lock, and must not reach into the map the
// caller is reading without it.
func TestDistributeReturnsCopy(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess := multiMeshSession(t, svc, 4)
	d := sess.NewDistributor(balance.DefaultThresholds())
	d.AddService(&localHandle{newRender("a", device.SGIOnyx)})
	d.AddService(&localHandle{newRender("b", device.SGIOnyx)})
	asg, err := d.Distribute()
	if err != nil {
		t.Fatal(err)
	}
	if len(asg) != 2 {
		t.Fatalf("precondition: both services own nodes, got %v", asg)
	}
	d.FailService("a")
	if len(asg) != 2 || len(asg["a"]) == 0 {
		t.Errorf("FailService rewrote the caller's assignment: %v", asg)
	}
}

func TestServeConnSubscriptionFlow(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess, err := svc.CreateSessionFromMesh("skull", "skull", genmodel.Galleon(1000))
	if err != nil {
		t.Fatal(err)
	}

	dsEnd, rsEnd := net.Pipe()
	defer dsEnd.Close()
	defer rsEnd.Close()
	go svc.ServeConn(dsEnd)

	conn := transport.NewConn(rsEnd)
	if err := conn.SendJSON(transport.MsgHello, transport.Hello{
		Role: "render-service", Name: "rs", Session: "skull",
	}); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := conn.Receive()
	if err != nil || typ != transport.MsgSceneSnapshot {
		t.Fatalf("bootstrap: %v %v", typ, err)
	}
	snap, err := marshal.ReadScene(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if snap.TotalCost().Triangles == 0 {
		t.Error("empty bootstrap snapshot")
	}
	// Camera follows the snapshot.
	typ, _, err = conn.Receive()
	if err != nil || typ != transport.MsgCameraUpdate {
		t.Fatalf("camera: %v %v", typ, err)
	}

	// Push an op from the subscriber; authoritative scene changes.
	id := sess.AllocID()
	op := &scene.AddNodeOp{Parent: scene.RootID, ID: id, Name: "added", Transform: mathx.Identity()}
	var opBuf bytes.Buffer
	if err := marshal.WriteOp(&opBuf, op); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(transport.MsgSceneOp, opBuf.Bytes()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		var found bool
		sess.Scene(func(sc *scene.Scene) { found = sc.Node(id) != nil })
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("op never applied")
		}
		time.Sleep(time.Millisecond)
	}

	// A second subscriber sees the update stream.
	other := &recordingSub{}
	if _, err := sess.Subscribe("watcher", other); err != nil {
		t.Fatal(err)
	}
	var opBuf2 bytes.Buffer
	if err := marshal.WriteOp(&opBuf2, &scene.SetNameOp{ID: id, Name: "renamed"}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(transport.MsgSceneOp, opBuf2.Bytes()); err != nil {
		t.Fatal(err)
	}
	for {
		if n, _ := other.counts(); n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fan-out never arrived")
		}
		time.Sleep(time.Millisecond)
	}

	// An op the other subscriber cannot be told about is still committed:
	// its author gets no error, so the next reply is the one it asked for.
	other.mu.Lock()
	other.fail = true
	other.mu.Unlock()
	var opBuf3 bytes.Buffer
	if err := marshal.WriteOp(&opBuf3, &scene.SetNameOp{ID: id, Name: "again"}); err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(transport.MsgSceneOp, opBuf3.Bytes()); err != nil {
		t.Fatal(err)
	}
	queried := make(chan error, 1)
	go func() { queried <- conn.Send(transport.MsgTelemetryQuery, nil) }() // the pipe is unbuffered
	if typ, payload, err := conn.Receive(); err != nil || typ != transport.MsgTelemetryReport {
		t.Fatalf("after a fan-out miss the author got %v %q (err %v), want its telemetry report", typ, payload, err)
	}
	if err := <-queried; err != nil {
		t.Fatal(err)
	}
	// The miss cut the watcher out of the fan-out.
	if subs := sess.SubscriberNames(); len(subs) != 1 || subs[0] != "rs" {
		t.Errorf("after the watcher's miss the subscribers are %v, want rs alone", subs)
	}

	if err := conn.Send(transport.MsgBye, nil); err != nil {
		t.Fatal(err)
	}
	// After bye, the subscriber is detached (poll: detach races with bye).
	for {
		if len(sess.SubscriberNames()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscriber not detached: %v", sess.SubscriberNames())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCameraMissKeepsAuthorsStream: a camera change another subscriber
// cannot be told about is set all the same, so, as for an op, its
// author's stream stays up and the miss is counted against the
// subscriber that missed it.
func TestCameraMissKeepsAuthorsStream(t *testing.T) {
	met := telemetry.NewRegistry(vclock.Real{})
	svc := New(Config{Name: "data", Metrics: met})
	sess, err := svc.CreateSession("s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Subscribe("broken", &recordingSub{fail: true}); err != nil {
		t.Fatal(err)
	}
	dsEnd, authorEnd := net.Pipe()
	defer dsEnd.Close()
	defer authorEnd.Close()
	served := make(chan error, 1)
	go func() { served <- svc.ServeConn(dsEnd) }()
	conn := transport.NewConn(authorEnd)
	if err := conn.SendJSON(transport.MsgHello, transport.Hello{Role: "render-service", Name: "author", Session: "s"}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []transport.MsgType{transport.MsgSceneSnapshot, transport.MsgCameraUpdate} {
		if typ, _, err := conn.Receive(); err != nil || typ != want {
			t.Fatalf("bootstrap: got %v (err %v), want %v", typ, err, want)
		}
	}
	if err := conn.SendJSON(transport.MsgCameraUpdate, transport.CameraState{Eye: [3]float64{1, 2, 3}, FovY: 0.7}); err != nil {
		t.Fatal(err)
	}
	go conn.Send(transport.MsgBye, nil) // unread if the stream has ended; the deferred close frees it
	if err := <-served; err != nil {
		t.Fatalf("the author's stream ended after a camera miss: %v", err)
	}
	if got := sess.Camera().Eye; got != [3]float64{1, 2, 3} {
		t.Errorf("shared camera eye %v, want the author's", got)
	}
	if n := met.Snapshot().CounterValue("data", "fanout_errors_total", telemetry.PeerLabel("broken")); n != 1 {
		t.Errorf("fanout_errors_total{broken} = %d, want 1", n)
	}
}

func TestServeConnUnknownSession(t *testing.T) {
	svc := New(Config{Name: "data"})
	dsEnd, rsEnd := net.Pipe()
	defer dsEnd.Close()
	defer rsEnd.Close()
	go svc.ServeConn(dsEnd)
	conn := transport.NewConn(rsEnd)
	if err := conn.SendJSON(transport.MsgHello, transport.Hello{
		Role: "render-service", Name: "rs", Session: "ghost",
	}); err != nil {
		t.Fatal(err)
	}
	_, err := conn.Expect(transport.MsgSceneSnapshot)
	var refusal *transport.Refusal
	if !errors.As(err, &refusal) || !strings.Contains(refusal.Message, "ghost") {
		t.Errorf("want a refusal naming the session, got %v", err)
	}
}

func TestRenderServiceSubscribeToDataEndToEnd(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess, err := svc.CreateSessionFromMesh("skull", "skull", genmodel.Galleon(1200))
	if err != nil {
		t.Fatal(err)
	}
	dsEnd, rsEnd := net.Pipe()
	defer dsEnd.Close()
	defer rsEnd.Close()
	go svc.ServeConn(dsEnd)

	rs := newRender("rs", device.AthlonDesktop)
	ready := make(chan *renderservice.Session, 1)
	go rs.SubscribeToData(rsEnd, "skull", func(s *renderservice.Session) { ready <- s })

	var replica *renderservice.Session
	select {
	case replica = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("bootstrap timed out")
	}

	// Authoritative update propagates to the replica.
	id := sess.AllocID()
	err = sess.ApplyUpdate(&scene.AddNodeOp{
		Parent: scene.RootID, ID: id, Name: "late",
		Transform: mathx.Identity(),
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for replica.Version() < sess.Version() {
		if time.Now().After(deadline) {
			t.Fatalf("replica at v%d, authority at v%d", replica.Version(), sess.Version())
		}
		time.Sleep(time.Millisecond)
	}

	// Camera propagates too.
	cam := sess.Camera()
	cam.Eye = [3]float64{9, 9, 9}
	if err := sess.SetCamera(cam, ""); err != nil {
		t.Fatal(err)
	}
	for {
		if replica.Camera().Eye == mathx.V3(9, 9, 9) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("camera never propagated")
		}
		time.Sleep(time.Millisecond)
	}

	// The replica renders the updated scene.
	frame, err := replica.RenderFrame(48, 48, "")
	if err != nil {
		t.Fatal(err)
	}
	if frame.Version != sess.Version() {
		t.Errorf("rendered version %d, authority %d", frame.Version, sess.Version())
	}
}

// The resume ring holds historyCap ops and nothing more: an op pushed
// out of it is overwritten in its slot, so no dead prefix of the
// backing array keeps old ops (and their payloads) reachable, and a
// discontinuity clears every slot.
func TestOpHistoryRingHoldsOnlyItsCap(t *testing.T) {
	var h opHistory
	const pushes = 3 * historyCap
	for v := uint64(1); v <= pushes; v++ {
		h.push(v, &scene.SetNameOp{ID: scene.RootID, Name: "n"})
	}
	if len(h.ops) != historyCap || cap(h.ops) != historyCap {
		t.Fatalf("ring len %d cap %d after %d pushes, want both %d", len(h.ops), cap(h.ops), pushes, historyCap)
	}
	for i, slot := range h.ops[:cap(h.ops)] {
		if slot.version <= pushes-historyCap {
			t.Fatalf("slot %d still holds version %d, which left the ring", i, slot.version)
		}
	}
	tail, ok := h.since(pushes-historyCap, pushes)
	if !ok || len(tail) != historyCap {
		t.Fatalf("since(%d) = %d ops, %v; want the last %d", pushes-historyCap, len(tail), ok, historyCap)
	}
	for i, op := range tail {
		if want := uint64(pushes - historyCap + 1 + i); op.version != want {
			t.Fatalf("tail[%d] is version %d, want %d", i, op.version, want)
		}
	}
	if _, ok := h.since(pushes-historyCap-1, pushes); ok {
		t.Error("since reached past the oldest retained op")
	}
	if tail, ok := h.since(pushes-1, pushes); !ok || len(tail) != 1 || tail[0].version != pushes {
		t.Errorf("since(latest-1) = %v, %v", tail, ok)
	}

	h.push(pushes+10, &scene.SetNameOp{ID: scene.RootID, Name: "after a gap"})
	if len(h.ops) != 1 || h.ops[0].version != pushes+10 {
		t.Fatalf("after a discontinuity the ring holds %d ops", len(h.ops))
	}
	for i, slot := range h.ops[1:cap(h.ops)] {
		if slot.op != nil {
			t.Fatalf("slot %d still holds version %d after the ring restarted", i+1, slot.version)
		}
	}
}
