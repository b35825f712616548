package dataservice

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/compositor"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// fakeTile is a controllable tile renderer: it answers after a fixed
// device delay on the virtual clock, or declines everything.
type fakeTile struct {
	name    string
	clk     vclock.Clock
	delay   time.Duration
	decline bool
	shade   uint8

	mu    sync.Mutex
	calls int
	avail bool
}

func (h *fakeTile) Name() string { return h.name }

func (h *fakeTile) Capacity() (transport.CapacityReport, error) {
	return transport.CapacityReport{Name: h.name, PolysPerSecond: 1e6, TargetFPS: 10}, nil
}

func (h *fakeTile) Render(job RenderJob) (compositor.Tile, error) {
	rect := job.Rect
	h.mu.Lock()
	h.calls++
	h.mu.Unlock()
	if h.decline {
		return compositor.Tile{}, &renderservice.ErrOverloaded{Service: h.name, Reason: renderservice.ReasonQueueFull}
	}
	h.clk.Sleep(h.delay)
	fb := raster.NewFramebuffer(rect.Dx(), rect.Dy())
	for i := range fb.Color {
		fb.Color[i] = h.shade
	}
	return compositor.Tile{Rect: rect, FB: fb, Version: 1}, nil
}

func (h *fakeTile) Available() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.avail
}

func (h *fakeTile) callCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.calls
}

// hedgeHarness builds a session on a virtual clock with the given
// handles attached.
func hedgeHarness(t *testing.T, clk vclock.Clock, handles ...RenderHandle) *Distributor {
	t.Helper()
	svc := New(Config{Name: "data", Clock: clk})
	sess, err := svc.CreateSession("hedge")
	if err != nil {
		t.Fatal(err)
	}
	d := sess.NewDistributor(balance.DefaultThresholds())
	for _, h := range handles {
		if err := d.AddService(h); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// drive advances the virtual clock in small steps until stop is called.
func drive(clk *vclock.Virtual) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for {
			select {
			case <-done:
				return
			default:
				clk.Advance(2 * time.Millisecond)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	return func() { close(done); <-finished }
}

// TestHedgedAllFast: every peer answers within the soft deadline — no
// hedges, no degradation, frame complete.
func TestHedgedAllFast(t *testing.T) {
	// Nonzero epoch: UnixNano()==0 reads as "no deadline" on the wire.
	clk := vclock.NewVirtual(time.Unix(1000, 0))
	a := &fakeTile{name: "a", clk: clk, delay: 5 * time.Millisecond, shade: 10, avail: true}
	b := &fakeTile{name: "b", clk: clk, delay: 5 * time.Millisecond, shade: 20, avail: true}
	d := hedgeHarness(t, clk, a, b)
	stop := drive(clk)
	defer stop()

	fb, rep, err := d.RenderTilesHedged(context.Background(), 32, 32, HedgeConfig{
		FrameDeadline: 100 * time.Millisecond, HedgeDelay: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fb == nil || fb.W != 32 || fb.H != 32 {
		t.Fatalf("frame = %+v", fb)
	}
	if rep.Hedged != 0 || rep.HedgeWins != 0 || len(rep.Degraded) != 0 {
		t.Fatalf("fast path hedged/degraded: %+v", rep)
	}
	if rep.Tiles != 2 {
		t.Fatalf("tiles = %d, want 2", rep.Tiles)
	}
	if rep.Latency <= 0 || rep.Latency > 100*time.Millisecond {
		t.Fatalf("latency = %v", rep.Latency)
	}
}

// TestHedgedStragglerRescued: one peer far slower than the soft
// deadline — its tile is re-issued to the fast peer, which wins, and
// the frame completes before the hard deadline with nothing degraded.
func TestHedgedStragglerRescued(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1000, 0))
	fast := &fakeTile{name: "fast", clk: clk, delay: 5 * time.Millisecond, shade: 10, avail: true}
	slow := &fakeTile{name: "slow", clk: clk, delay: time.Hour, shade: 20, avail: true}
	d := hedgeHarness(t, clk, fast, slow)
	stop := drive(clk)
	defer stop()

	fb, rep, err := d.RenderTilesHedged(context.Background(), 32, 32, HedgeConfig{
		FrameDeadline: 200 * time.Millisecond, HedgeDelay: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fb == nil {
		t.Fatal("no frame")
	}
	if rep.Hedged != 1 || rep.HedgeWins != 1 {
		t.Fatalf("hedged=%d wins=%d, want 1/1", rep.Hedged, rep.HedgeWins)
	}
	if len(rep.Degraded) != 0 {
		t.Fatalf("degraded = %v, want none (hedge rescued it)", rep.Degraded)
	}
	if fast.callCount() != 2 {
		t.Fatalf("fast peer calls = %d, want 2 (own tile + hedge)", fast.callCount())
	}
}

// TestHedgedDegradesWhenNoSpare: a single slow peer (nobody to hedge
// to) — the hard deadline force-assembles with the region degraded from
// the last good frame, and the frame is never lost.
func TestHedgedDegradesWhenNoSpare(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1000, 0))
	only := &fakeTile{name: "only", clk: clk, delay: 5 * time.Millisecond, shade: 77, avail: true}
	d := hedgeHarness(t, clk, only)
	stop := drive(clk)
	defer stop()

	cfg := HedgeConfig{FrameDeadline: 100 * time.Millisecond, HedgeDelay: 30 * time.Millisecond}
	// Frame 1 succeeds and becomes the last good frame.
	if _, _, err := d.RenderTilesHedged(context.Background(), 32, 32, cfg); err != nil {
		t.Fatal(err)
	}
	// Frame 2: the peer stalls; the frame must still ship by deadline.
	only.mu.Lock()
	only.delay = time.Hour
	only.mu.Unlock()
	fb, rep, err := d.RenderTilesHedged(context.Background(), 32, 32, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Degraded) != 1 {
		t.Fatalf("degraded = %v, want the full frame region", rep.Degraded)
	}
	if rep.Latency > 110*time.Millisecond {
		t.Fatalf("forced assembly latency = %v, want ~deadline", rep.Latency)
	}
	// The degraded region carries the last good frame's pixels.
	if fb.Color[0] != 77 {
		t.Fatalf("fallback pixel = %d, want 77", fb.Color[0])
	}
}

// TestHedgedDeclineFailsOverImmediately: a peer that declines (typed
// overload refusal) triggers immediate re-issue without waiting for the
// hedge timer.
func TestHedgedDeclineFailsOverImmediately(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1000, 0))
	busy := &fakeTile{name: "busy", clk: clk, decline: true, avail: true}
	calm := &fakeTile{name: "calm", clk: clk, delay: 5 * time.Millisecond, shade: 30, avail: true}
	d := hedgeHarness(t, clk, busy, calm)
	stop := drive(clk)
	defer stop()

	// HedgeDelay far beyond the hard deadline would never fire; only the
	// decline-driven failover can rescue the busy peer's tile.
	_, rep, err := d.RenderTilesHedged(context.Background(), 32, 32, HedgeConfig{
		FrameDeadline: 100 * time.Millisecond, HedgeDelay: 90 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Declined == 0 {
		t.Fatalf("declines not counted: %+v", rep)
	}
	if rep.Hedged == 0 || rep.HedgeWins == 0 {
		t.Fatalf("decline did not fail over: %+v", rep)
	}
	if len(rep.Degraded) != 0 {
		t.Fatalf("degraded = %v, want none", rep.Degraded)
	}
}

// TestHedgedPlansAroundUnavailable: a breaker-open peer (Available()
// false) receives no tiles at all.
func TestHedgedPlansAroundUnavailable(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1000, 0))
	open := &fakeTile{name: "open", clk: clk, delay: 5 * time.Millisecond, shade: 1, avail: false}
	ok := &fakeTile{name: "ok", clk: clk, delay: 5 * time.Millisecond, shade: 2, avail: true}
	d := hedgeHarness(t, clk, open, ok)
	stop := drive(clk)
	defer stop()

	_, rep, err := d.RenderTilesHedged(context.Background(), 32, 32, HedgeConfig{
		FrameDeadline: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if open.callCount() != 0 {
		t.Fatalf("breaker-open peer received %d tile calls", open.callCount())
	}
	if rep.Tiles != 1 || len(rep.Degraded) != 0 {
		t.Fatalf("plan around open breaker failed: %+v", rep)
	}
	if !d.NeedRecruitment() {
		t.Fatal("open breaker did not register as recruitment pressure")
	}
}
