package core

import (
	"bytes"
	"context"
	"errors"
	"image"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/balance"
	rthin "repro/internal/client"
	"repro/internal/compositor"
	"repro/internal/dataservice"
	"repro/internal/device"
	"repro/internal/geom/genmodel"
	"repro/internal/marshal"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// TestSubsetFrameTraceSpansServices: a dataset-distributed frame over
// two socket handles yields one trace tree — frame → plan, one launch
// span per service (each holding that service's own render span, which
// crossed the wire in the render request), composite.
func TestSubsetFrameTraceSpansServices(t *testing.T) {
	tracer := telemetry.NewTracer(nil)
	data := dataservice.New(dataservice.Config{Name: "data", Tracer: tracer})
	sess, err := data.CreateSession("s")
	if err != nil {
		t.Fatal(err)
	}
	full := genmodel.Elle(4000)
	for _, piece := range full.SplitSpatially(4) {
		if _, err := sess.AddMesh("piece", piece, mathx.Identity()); err != nil {
			t.Fatal(err)
		}
	}
	cam := raster.DefaultCamera().FitToBounds(full.Bounds(), mathx.V3(0.3, 0.2, 1))
	if err := sess.SetCamera(renderservice.StateFromCamera(cam), ""); err != nil {
		t.Fatal(err)
	}

	dist := sess.NewDistributor(balance.DefaultThresholds())
	for _, name := range []string{"rs1", "rs2"} {
		rs := renderservice.New(renderservice.Config{Name: name, Device: device.XeonDesktop, Workers: 1, Tracer: tracer})
		dataEnd, renderEnd := net.Pipe()
		t.Cleanup(func() { dataEnd.Close() })
		go rs.ServeClient(renderEnd, 50e6)
		h, err := DialSocketHandle(dataEnd, name, "s")
		if err != nil {
			t.Fatal(err)
		}
		if err := dist.AddService(h); err != nil {
			t.Fatal(err)
		}
	}
	if asg, err := dist.Distribute(); err != nil || len(asg) != 2 {
		t.Fatalf("distribute: %v, %v", asg, err)
	}
	if _, err := dist.RenderDistributed(64, 48); err != nil {
		t.Fatal(err)
	}

	trees := telemetry.BuildTrees(tracer.Spans())
	dump := telemetry.FormatTrees(trees)
	if len(trees) != 1 {
		t.Fatalf("want one trace tree, got %d:\n%s", len(trees), dump)
	}
	root := trees[0]
	if root.Span.Name != "frame" || root.Span.Service != "data" || root.Span.Status != telemetry.StatusOK {
		t.Fatalf("root = %+v\n%s", root.Span, dump)
	}
	var names []string
	for _, child := range root.Children {
		names = append(names, child.Span.Name)
		if child.Span.Name != "render-subset" {
			continue
		}
		if len(child.Children) != 1 || child.Children[0].Span.Name != "render" ||
			child.Children[0].Span.Service != child.Span.Peer {
			t.Fatalf("launch span for %s lacks that service's render span\n%s", child.Span.Peer, dump)
		}
	}
	want := []string{"plan", "render-subset", "render-subset", "composite"}
	if len(names) != len(want) {
		t.Fatalf("root children %v, want %v\n%s", names, want, dump)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("root children %v, want %v\n%s", names, want, dump)
		}
	}
}

// TestPeerDialsBeforeReplicaLands: a peer's hello names a session, it
// does not pin one. A distributor that finds a render service in the
// registry may dial it before that service's subscription has landed the
// replica; the tile job it sends once the replica is there is served.
func TestPeerDialsBeforeReplicaLands(t *testing.T) {
	rs := renderservice.New(renderservice.Config{Name: "late", Device: device.XeonDesktop, Workers: 1})
	dataEnd, renderEnd := net.Pipe()
	t.Cleanup(func() { dataEnd.Close() })
	go rs.ServeClient(renderEnd, 50e6)
	h, err := DialSocketHandle(dataEnd, "late", "s")
	if err != nil {
		t.Fatal(err)
	}
	job := dataservice.RenderJob{Rect: image.Rect(0, 16, 32, 32), FullW: 32, FullH: 32}
	var refusal *transport.Refusal
	if _, err := h.Render(job); !errors.As(err, &refusal) || refusal.Peer != "late" {
		t.Fatalf("tile job before the replica landed: %v, want a refusal from the service", err)
	}

	sc := scene.New()
	mesh := genmodel.Elle(500)
	if err := sc.ApplyOp(&scene.AddNodeOp{Parent: scene.RootID, ID: sc.AllocID(), Name: "elle", Transform: mathx.Identity(), Payload: &scene.MeshPayload{Mesh: mesh}}); err != nil {
		t.Fatal(err)
	}
	sess, err := rs.OpenSession("s", sc, raster.DefaultCamera().FitToBounds(mesh.Bounds(), mathx.V3(0.3, 0.2, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	tile, err := h.Render(job)
	if err != nil {
		t.Fatalf("tile job after the replica landed: %v", err)
	}
	if tile.FB.W != 32 || tile.FB.H != 16 || tile.Version != sess.Version() || tile.FB.CoveredPixels() == 0 {
		t.Errorf("tile %dx%d at version %d with %d pixels drawn", tile.FB.W, tile.FB.H, tile.Version, tile.FB.CoveredPixels())
	}
}

// stalledHandle never answers until released.
type stalledHandle struct{ release chan struct{} }

func (h *stalledHandle) Name() string { return "stalled" }

func (h *stalledHandle) Capacity() (transport.CapacityReport, error) {
	return transport.CapacityReport{Name: "stalled"}, nil
}

func (h *stalledHandle) Render(dataservice.RenderJob) (compositor.Tile, error) {
	<-h.release
	return compositor.Tile{}, errors.New("released")
}

// TestBreakerBoundsSubsetJobByDeadline: a subset job on a stalled peer
// returns at its deadline — not when the peer finally answers — and the
// timeout counts as a breaker failure.
func TestBreakerBoundsSubsetJobByDeadline(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1000, 0))
	inner := &stalledHandle{release: make(chan struct{})}
	defer close(inner.release)
	bh := NewBreakerHandle(inner, rthin.BreakerConfig{Threshold: 1, Cooldown: time.Hour}, clk)

	errc := make(chan error, 1)
	go func() {
		_, err := bh.Render(dataservice.RenderJob{
			Scene: scene.New(), Rect: image.Rect(0, 0, 8, 8), FullW: 8, FullH: 8,
			Deadline: clk.Now().Add(50 * time.Millisecond),
		})
		errc <- err
	}()
	for start := time.Now(); clk.PendingWaiters() != 1; runtime.Gosched() {
		if time.Since(start) > 5*time.Second {
			t.Fatal("the job never armed its deadline timer")
		}
	}
	clk.Advance(50 * time.Millisecond)
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("stalled job returned without error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stalled subset job did not return at its deadline")
	}
	if bh.Available() {
		t.Fatal("the timeout was not counted as a breaker failure")
	}
}

// lyingService speaks a render service's side of the peer protocol but
// answers every tile job with frame(), whatever was asked: the frame a
// handle must not take a peer's word for.
func lyingService(conn net.Conn, name string, frame func() []byte) {
	c := transport.NewConn(conn)
	for {
		t, _, err := c.Receive()
		if err != nil {
			return
		}
		switch t {
		case transport.MsgHello:
			err = c.Send(transport.MsgOK, nil)
		case transport.MsgCapacityQuery:
			rep := renderservice.New(renderservice.Config{Name: name, Device: device.XeonDesktop, Workers: 1}).Capacity()
			err = c.SendJSON(transport.MsgCapacityReport, rep)
		case transport.MsgRender:
			err = c.Send(transport.MsgFrameDepth, transport.PackVersioned(1, frame()))
		}
		if err != nil {
			return
		}
	}
}

// TestWrongSizedFrameIsAPartFailure: a spans frame's header, not its
// length, is what its decoder builds, so a handle lets through only the
// size it asked for. A peer answering a 640×240 tile job with a
// 16384×16384 header costs its caller an error naming it and next to no
// memory; one answering with a well-formed 8×8 frame is refused too,
// here and not in BlitTile; and to the distributor either is a failed
// part like any other — re-issued, counted by the peer's breaker.
func TestWrongSizedFrameIsAPartFailure(t *testing.T) {
	huge := marshal.AppendFrame(nil, raster.NewFramebuffer(1, 1), true)
	huge[2], huge[6] = 0x40, 0x40 // 1x1 -> 16384x16384
	small := raster.NewFramebuffer(8, 8)
	small.Plot(3, 3, 0.5, 1, 2, 3)
	lies := map[string][]byte{"a 16384x16384 header": huge, "a valid 8x8 frame": marshal.AppendFrame(nil, small, true)}
	if len(huge) >= 64 {
		t.Fatalf("the oversized frame is %d bytes", len(huge))
	}
	dial := func(frame func() []byte) *SocketHandle {
		dataEnd, peerEnd := net.Pipe()
		t.Cleanup(func() { dataEnd.Close() })
		go lyingService(peerEnd, "liar", frame)
		h, err := DialSocketHandle(dataEnd, "liar", "s")
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	for what, lie := range lies {
		h := dial(func() []byte { return lie })
		job := dataservice.RenderJob{Rect: image.Rect(0, 240, 640, 480), FullW: 640, FullH: 480}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tile, err := h.Render(job)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "liar") {
			t.Errorf("%s: got a %v tile and error %v, want a refusal naming the peer", what, tile.Rect, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
			t.Errorf("%s: refusing it allocated %d bytes", what, grew)
		}
		// The exchange was consumed whole: the connection is still usable.
		if _, err := h.Capacity(); err != nil {
			t.Errorf("%s: handle unusable after the refusal: %v", what, err)
		}
	}

	// The same liar beside an honest service, under the distributor.
	data := dataservice.New(dataservice.Config{Name: "data"})
	sess, err := data.CreateSession("s")
	if err != nil {
		t.Fatal(err)
	}
	mesh := genmodel.Elle(2000)
	if _, err := sess.AddMesh("elle", mesh, mathx.Identity()); err != nil {
		t.Fatal(err)
	}
	cam := raster.DefaultCamera().FitToBounds(mesh.Bounds(), mathx.V3(0.3, 0.2, 1))
	if err := sess.SetCamera(renderservice.StateFromCamera(cam), ""); err != nil {
		t.Fatal(err)
	}
	honest := renderservice.New(renderservice.Config{Name: "honest", Device: device.XeonDesktop, Workers: 1})
	if _, err := honest.OpenSession("s", sess.Snapshot(), cam); err != nil {
		t.Fatal(err)
	}
	dataEnd, renderEnd := net.Pipe()
	t.Cleanup(func() { dataEnd.Close() })
	go honest.ServeClient(renderEnd, 50e6)
	hh, err := DialSocketHandle(dataEnd, "honest", "s")
	if err != nil {
		t.Fatal(err)
	}
	liar := NewBreakerHandle(dial(func() []byte { return lies["a valid 8x8 frame"] }),
		rthin.BreakerConfig{Threshold: 1, Cooldown: time.Hour}, nil)
	dist := sess.NewDistributor(balance.DefaultThresholds())
	for _, h := range []dataservice.RenderHandle{hh, liar} {
		if err := dist.AddService(h); err != nil {
			t.Fatal(err)
		}
	}
	fb, rep, err := dist.RenderTilesHedged(context.Background(), 64, 48, dataservice.HedgeConfig{FrameDeadline: 10 * time.Second, HedgeDelay: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tiles != 2 || rep.Hedged != 1 || rep.HedgeWins != 1 || len(rep.Degraded) != 0 {
		t.Errorf("report %+v, want the liar's tile re-issued to the honest service and won there", rep)
	}
	whole, _, err := honest.RenderSceneOnce(sess.Snapshot(), cam, 64, 48)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb.Color, whole.Color) {
		t.Error("the frame assembled around the liar differs from a one-piece render")
	}
	if liar.Available() {
		t.Error("the refused frame was not counted as a breaker failure")
	}
}
