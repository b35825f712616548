package dataservice

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/compositor"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// breakerProbe drives one peer's record by hand, one part at a time,
// each with a 500 ms deadline budget — so an opening earns a one-second
// cooldown.
type breakerProbe struct {
	d   *Distributor
	clk *vclock.Virtual
	out *call
}

const probeBudget = 500 * time.Millisecond

var errProbe = errors.New("part failed")

func newBreakerProbe(t *testing.T) *breakerProbe {
	clk := vclock.NewVirtual(time.Unix(1000, 0))
	return &breakerProbe{d: hedgeHarness(t, clk, &fakeTile{name: "p", clk: clk}), clk: clk}
}

// allow sends a part if the peer may be given one now.
func (b *breakerProbe) allow() bool {
	b.d.mu.Lock()
	defer b.d.mu.Unlock()
	now := b.clk.Now()
	if !b.d.peers["p"].available(now) {
		return false
	}
	b.out = b.d.begin("p", now, now.Add(probeBudget), probeBudget)
	return true
}

// answer settles the last part sent.
func (b *breakerProbe) answer(err error) {
	b.d.mu.Lock()
	defer b.d.mu.Unlock()
	b.d.settle(b.out, err, b.clk.Now())
}

func (b *breakerProbe) success() { b.allow(); b.answer(nil) }
func (b *breakerProbe) failure() { b.allow(); b.answer(errProbe) }
func (b *breakerProbe) state() BreakerState {
	return b.d.Health("p").State
}

// TestBreakerLifecycle walks the peer record's full state machine on the
// virtual clock: closed → (threshold failures) → open → (cooldown) →
// half-open single probe → closed on success.
func TestBreakerLifecycle(t *testing.T) {
	b := newBreakerProbe(t)
	if b.state() != BreakerClosed {
		t.Fatalf("initial state = %v", b.state())
	}
	// Failures below the threshold keep it closed; a success resets.
	b.failure()
	b.failure()
	b.success()
	b.failure()
	b.failure()
	if b.state() != BreakerClosed {
		t.Fatalf("state after reset+2 failures = %v", b.state())
	}
	b.failure() // third consecutive: opens
	if b.state() != BreakerOpen {
		t.Fatalf("state after threshold = %v", b.state())
	}
	if b.allow() {
		t.Fatal("open peer was given a part")
	}

	// Cooldown (twice the opening part's budget) elapses: exactly one
	// half-open probe is admitted.
	b.clk.Advance(2 * probeBudget)
	if !b.allow() {
		t.Fatal("half-open peer refused the probe")
	}
	if b.state() != BreakerHalfOpen {
		t.Fatalf("state during probe = %v", b.state())
	}
	probe := b.out
	if b.allow() {
		t.Fatal("second part admitted while probe in flight")
	}

	// Probe succeeds: closed, traffic resumes.
	b.out = probe
	b.answer(nil)
	if b.state() != BreakerClosed {
		t.Fatalf("state after probe success = %v", b.state())
	}
	if !b.allow() {
		t.Fatal("closed peer refused traffic")
	}

	want := []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerClosed}
	if got := b.d.Health("p").Transitions; !slices.Equal(got, want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
}

// TestBreakerProbeFailureReopens proves a failed half-open probe
// re-opens for a full cooldown instead of resuming traffic.
func TestBreakerProbeFailureReopens(t *testing.T) {
	b := newBreakerProbe(t)
	for i := 0; i < breakerThreshold; i++ {
		b.failure()
	}
	b.clk.Advance(2 * probeBudget)
	if !b.allow() {
		t.Fatal("probe refused")
	}
	b.answer(errProbe) // probe failed
	if b.state() != BreakerOpen {
		t.Fatalf("state after failed probe = %v", b.state())
	}
	if b.allow() {
		t.Fatal("reopened peer was given a part inside its cooldown")
	}
	b.clk.Advance(2 * probeBudget)
	if !b.allow() {
		t.Fatal("second probe refused after second cooldown")
	}
	b.answer(nil)
	if b.state() != BreakerClosed {
		t.Fatalf("state after recovery = %v", b.state())
	}
}

// stallTile is a tile peer whose replies are held until release closes.
type stallTile struct {
	fakeTile
	release chan struct{}
}

func (h *stallTile) Render(job RenderJob) (compositor.Tile, error) {
	h.mu.Lock()
	h.calls++
	h.mu.Unlock()
	<-h.release
	return h.fakeTile.Render(job)
}

// TestStalledPeerOpensAndRecovers: a bare tile peer — no wrapper, the
// handle the daemons dial — stalls across frames. Its part is still
// unanswered at each frame's deadline and counts a failure there, while
// it is stalled, so after three frames it opens; the next frame is
// planned around it; once the cooldown (twice the 100 ms deadline) is
// spent it gets one half-open probe, whose success closes it. The healthy
// peers record no transitions. The clock is advanced by hand and only
// once every reply a frame can get has been recorded, so the run is the
// same at any GOMAXPROCS.
func TestStalledPeerOpensAndRecovers(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1000, 0))
	a := &fakeTile{name: "a", clk: clk, shade: 10}
	b := &fakeTile{name: "b", clk: clk, shade: 20}
	s := &stallTile{fakeTile: fakeTile{name: "s", clk: clk, shade: 30}, release: make(chan struct{})}
	reg := telemetry.NewRegistry(clk)
	svc := New(Config{Name: "data", Clock: clk, Metrics: reg})
	sess, err := svc.CreateSession("stall")
	if err != nil {
		t.Fatal(err)
	}
	d := sess.NewDistributor(balance.DefaultThresholds())
	for _, h := range []RenderHandle{a, b, s} {
		if err := d.AddService(h); err != nil {
			t.Fatal(err)
		}
	}
	cfg := HedgeConfig{FrameDeadline: 100 * time.Millisecond, HedgeDelay: 30 * time.Millisecond}
	outstanding := func(name string) int {
		d.mu.Lock()
		defer d.mu.Unlock()
		return len(d.peers[name].calls)
	}
	waitUntil := func(what string, cond func() bool) {
		t.Helper()
		for start := time.Now(); !cond(); runtime.Gosched() {
			if time.Since(start) > 10*time.Second {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	// Three frames through the stall. Each is forced at its deadline: the
	// clock moves only after both timers are armed and both healthy
	// peers' replies are recorded.
	for frame := 1; frame <= breakerThreshold; frame++ {
		type result struct {
			rep *FrameReport
			err error
		}
		got := make(chan result, 1)
		go func() {
			_, rep, err := d.Render(context.Background(), FrameRequest{W: 32, H: 32, Mode: Tiles, Timers: cfg})
			got <- result{rep, err}
		}()
		waitUntil("the frame to arm its timers and the healthy replies to land", func() bool {
			return clk.PendingWaiters() == 2 && outstanding("a") == 0 && outstanding("b") == 0 && outstanding("s") == 1
		})
		clk.Advance(cfg.FrameDeadline)
		r := <-got
		if r.err != nil {
			t.Fatalf("frame %d: %v", frame, r.err)
		}
		if r.rep.Parts != 3 {
			t.Fatalf("frame %d planned %d tiles, want 3 while the peer is closed", frame, r.rep.Parts)
		}
		h := d.Health("s")
		if frame < breakerThreshold && (h.State != BreakerClosed || h.Failures != frame) {
			t.Fatalf("after stalled frame %d: %+v, want closed with %d failures", frame, h, frame)
		}
	}
	if h := d.Health("s"); h.State != BreakerOpen {
		t.Fatalf("after %d stalled frames the peer is %+v, want open", breakerThreshold, h)
	}

	// Planned around: the healthy peers share the frame and answer at once.
	calls := s.callCount()
	_, rep, err := d.Render(context.Background(), FrameRequest{W: 32, H: 32, Mode: Tiles, Timers: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Parts != 2 || len(rep.Degraded) != 0 || s.callCount() != calls {
		t.Fatalf("open peer not planned around: %+v, %d new calls", rep, s.callCount()-calls)
	}

	// The stall lifts (the held replies land late and are not counted
	// again) and the cooldown passes: one probe, which closes the peer.
	close(s.release)
	clk.Advance(2 * cfg.FrameDeadline)
	_, rep, err = d.Render(context.Background(), FrameRequest{W: 32, H: 32, Mode: Tiles, Timers: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Parts != 3 || rep.Hedged != 0 || len(rep.Degraded) != 0 {
		t.Fatalf("probe frame: %+v", rep)
	}
	want := []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerClosed}
	if h := d.Health("s"); h.State != BreakerClosed || !slices.Equal(h.Transitions, want) {
		t.Fatalf("stalled peer: %+v, want closed via %v", h, want)
	}
	for _, name := range []string{"a", "b"} {
		if tr := d.Health(name).Transitions; len(tr) != 0 {
			t.Fatalf("healthy peer %s transitioned: %v", name, tr)
		}
	}
	snap := reg.Snapshot()
	for metric, want := range map[string]int64{"breaker_open_total": 1, "breaker_half_open_total": 1, "breaker_closed_total": 1} {
		if got := snap.CounterValue("data", metric, "s"); got != want {
			t.Errorf("%s{s} = %d, want %d", metric, got, want)
		}
	}
}
