package core

import (
	"errors"
	"image"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/balance"
	rthin "repro/internal/client"
	"repro/internal/compositor"
	"repro/internal/dataservice"
	"repro/internal/device"
	"repro/internal/geom/genmodel"
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
// crossed the wire in the subset assignment), composite.
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
