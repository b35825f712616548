package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/balance"
	"repro/internal/compositor"
	"repro/internal/dataservice"
	"repro/internal/device"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/renderservice"
)

// scripted answers its first job with err, when set, instead of
// rendering it, and counts the jobs it is given.
type scripted struct {
	dataservice.RenderHandle
	mu    sync.Mutex
	err   error
	calls int
}

func (s *scripted) Render(job dataservice.RenderJob) (compositor.Tile, error) {
	s.mu.Lock()
	err := s.err
	s.err = nil
	s.calls++
	s.mu.Unlock()
	if err != nil {
		return compositor.Tile{}, err
	}
	return s.RenderHandle.Render(job)
}

// offPixels counts the pixels whose colour differs between a and b.
func offPixels(a, b *raster.Framebuffer) int {
	if a.W != b.W || a.H != b.H {
		return a.W * a.H
	}
	off := 0
	for p := 0; p < a.W*a.H; p++ {
		if a.Color[3*p] != b.Color[3*p] || a.Color[3*p+1] != b.Color[3*p+1] || a.Color[3*p+2] != b.Color[3*p+2] {
			off++
		}
	}
	return off
}

// frameRequest is one row's request to the distributor.
type frameRequest struct {
	mode    string // "subsets", "tiles" or "slabs"
	w, h    int
	opacity float64
	timers  dataservice.HedgeConfig
}

// renderRequest is the one call the oracle makes into the distributor.
func renderRequest(ctx context.Context, d *dataservice.Distributor, req frameRequest) (*raster.Framebuffer, error) {
	mode := map[string]dataservice.Mode{"tiles": dataservice.Tiles, "subsets": dataservice.Subsets, "slabs": dataservice.Slabs}[req.mode]
	fb, _, err := d.Render(ctx, dataservice.FrameRequest{W: req.w, H: req.h, Mode: mode, Opacity: req.opacity, Timers: req.timers})
	return fb, err
}

// TestDistributedFrameMatchesOnePiece is the distributed frame's oracle:
// over 2 and 3 in-process services holding the session's replica, a
// frame of every partitioning is 0 px off the frame one service makes of
// the same snapshot and camera — a one-piece render for subsets and
// tiles (the pieces of the split model never tie in depth), the same
// request on a one-service distributor for blended slabs — when every
// part succeeds, when one service's first part fails (a tile is
// re-issued; subsets and slabs are re-placed), and when it declines (a
// tile is re-issued; a subset or slab frame fails, and the service that
// declined stays attached). No frame leaves a goroutine behind. A subset
// frame under the timers a tile frame takes behaves as one without.
func TestDistributedFrameMatchesOnePiece(t *testing.T) {
	const w, h = 64, 48
	timers := dataservice.HedgeConfig{FrameDeadline: 10 * time.Second, HedgeDelay: 5 * time.Second}
	outcomes := []struct {
		name string
		err  error
	}{
		{"ok", nil},
		{"error", errors.New("scripted render failure")},
		{"decline", &renderservice.ErrOverloaded{Service: "scripted", Reason: admission.ReasonQueueFull}},
	}
	requests := []frameRequest{
		{mode: "subsets", w: w, h: h},
		{mode: "subsets", w: w, h: h, timers: timers},
		{mode: "tiles", w: w, h: h, timers: timers},
		{mode: "slabs", w: w, h: h, opacity: 0.6},
	}
	for _, peers := range []int{2, 3} {
		for _, req := range requests {
			for _, out := range outcomes {
				t.Run(fmt.Sprintf("%s/%d-peers/%s/deadline=%v", req.mode, peers, out.name, req.timers.FrameDeadline), func(t *testing.T) {
					oracleRow(t, req, peers, out.err)
				})
			}
		}
	}
}

func oracleRow(t *testing.T, req frameRequest, peers int, scriptErr error) {
	data := dataservice.New(dataservice.Config{Name: "data"})
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
	service := func(name string) *LocalHandle {
		rs := renderservice.New(renderservice.Config{Name: name, Device: device.XeonDesktop, Workers: 1})
		if _, err := rs.OpenSession("s", sess.Snapshot(), cam); err != nil {
			t.Fatal(err)
		}
		return &LocalHandle{Svc: rs}
	}

	// The reference: one service draws the whole request.
	var want *raster.Framebuffer
	if req.mode == "slabs" {
		solo := sess.NewDistributor(balance.DefaultThresholds())
		if err := solo.AddService(service("solo")); err != nil {
			t.Fatal(err)
		}
		if _, err := solo.Distribute(); err != nil {
			t.Fatal(err)
		}
		if want, err = renderRequest(context.Background(), solo, req); err != nil {
			t.Fatal(err)
		}
	} else {
		one := service("one")
		if want, _, err = one.Svc.RenderSceneOnce(sess.Snapshot(), cam, req.w, req.h); err != nil {
			t.Fatal(err)
		}
	}
	if want.CoveredPixels() == 0 {
		t.Fatal("the reference frame is empty: the row shows nothing")
	}

	dist := sess.NewDistributor(balance.DefaultThresholds())
	var victim *scripted
	for i := 1; i <= peers; i++ {
		h := &scripted{RenderHandle: service(fmt.Sprintf("rs%d", i))}
		if i == peers {
			h.err, victim = scriptErr, h
		}
		if err := dist.AddService(h); err != nil {
			t.Fatal(err)
		}
	}
	if asg, err := dist.Distribute(); err != nil || len(asg) != peers {
		t.Fatalf("distribute: %v, %v", asg, err)
	}

	before := runtime.NumGoroutine()
	fb, err := renderRequest(context.Background(), dist, req)
	var ov *renderservice.ErrOverloaded
	declined := errors.As(scriptErr, &ov)
	switch {
	case declined && req.mode != "tiles":
		if !errors.As(err, &ov) {
			t.Fatalf("a declined %s part: frame error %v, want the typed decline", req.mode, err)
		}
	case err != nil:
		t.Fatal(err)
	default:
		if off := offPixels(fb, want); off != 0 {
			t.Errorf("%d px off the one-service frame", off)
		}
	}
	name := victim.Name()
	replaced := scriptErr != nil && !declined && req.mode != "tiles"
	if got := dist.Health(name).Failed; got != replaced {
		t.Errorf("%s failed = %v, want %v", name, got, replaced)
	}
	if scriptErr != nil && req.mode != "slabs" && victim.calls != 1 {
		// A tile or subset part is the victim's only job: the one it
		// refused was drawn elsewhere, or the frame failed.
		t.Errorf("%s was given %d jobs, want its one scripted refusal", name, victim.calls)
	}
	for start := time.Now(); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("%d goroutines after the frame, %d before", runtime.NumGoroutine(), before)
		}
	}
}
