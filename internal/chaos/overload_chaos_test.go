package chaos

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/core"
	"repro/internal/dataservice"
	"repro/internal/device"
	"repro/internal/netsim"
	"repro/internal/renderservice"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// containsSeq reports whether states contains want as a (not
// necessarily contiguous) subsequence.
func containsSeq(states, want []dataservice.BreakerState) bool {
	i := 0
	for _, s := range states {
		if i < len(want) && s == want[i] {
			i++
		}
	}
	return i == len(want)
}

// percentile returns the p-th percentile (0..1) of the sorted copy of
// durations.
func percentile(ds []time.Duration, p float64) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// TestOverloadStalledPeerDegradesNotFreezes is the overload chaos
// scenario: three render services share a session's tiles; the fastest
// one's socket is stalled by a netsim fault mid-run. Requirements:
//
//   - every frame assembles by its deadline — degraded tiles are
//     allowed while the stall lasts, lost frames are not;
//   - p99 frame latency stays within the deadline;
//   - the stalled peer's circuit breaker — kept by the distributor, the
//     handle is a bare socket — opens during the stall (each part still
//     unanswered at its deadline counts a failure while the socket is
//     wedged), then half-opens and closes after recovery, returning the
//     peer to the tile rotation.
//
// Everything runs on the virtual clock, moved by Drive only when every
// goroutine is blocked, and the render services charge their device
// model's cost on it: a frame's latency is the modeled cost of its
// parts, not the host's speed, so the run is deterministic at any
// GOMAXPROCS.
func TestOverloadStalledPeerDegradesNotFreezes(t *testing.T) {
	// Nonzero epoch: at time.Unix(0,0) a deadline's UnixNano() is 0,
	// which the wire protocol reads as "no deadline".
	clk := vclock.NewVirtual(time.Unix(1000, 0))
	stop := clk.Drive()
	defer stop()

	// One registry and tracer shared by the data service and all three
	// render services: each client frame becomes a single trace tree
	// spanning fan-out, hedging, per-peer renders and the composite.
	reg := telemetry.NewRegistry(clk)
	tracer := telemetry.NewTracer(clk)

	svc := dataservice.New(dataservice.Config{Name: "data", Clock: clk, Metrics: reg, Tracer: tracer})
	sess := distSession(t, svc, 12000, 6)
	d := sess.NewDistributor(balance.DefaultThresholds())
	snapshot := sess.Snapshot()
	cam := renderservice.CameraFromState(sess.Camera())

	// Two healthy in-process services. Every render service charges its
	// device model's frame time on the clock (SimulateDeviceTime): under
	// Drive real work costs no virtual time, so without the charge a frame
	// routed around the open breaker would cost nothing and the stall
	// window below would never end.
	healthy := []string{"athlon", "xeon"}
	for _, spec := range []struct {
		name string
		dev  device.Profile
	}{{"athlon", device.AthlonDesktop}, {"xeon", device.XeonDesktop}} {
		rs := renderservice.New(renderservice.Config{Name: spec.name, Device: spec.dev, Workers: 2, Clock: clk, SimulateDeviceTime: true, Metrics: reg, Tracer: tracer})
		if _, err := rs.OpenSession("dist", snapshot, cam); err != nil {
			t.Fatal(err)
		}
		if err := d.AddService(&core.LocalHandle{Svc: rs}); err != nil {
			t.Fatal(err)
		}
	}

	// The victim: the fastest device, reached over a simulated socket so
	// its replies can be stalled.
	victim := renderservice.New(renderservice.Config{Name: "victim", Device: device.SGIOnyx, Workers: 2, Clock: clk, SimulateDeviceTime: true, Metrics: reg, Tracer: tracer})
	if _, err := victim.OpenSession("dist", snapshot, cam); err != nil {
		t.Fatal(err)
	}
	dataEnd, renderEnd := netsim.SimPipe(clk, instant(), instant())
	go victim.ServeClient(renderEnd, 94e6)
	vh, err := core.DialSocketHandle(dataEnd, "victim", "dist")
	if err != nil {
		t.Fatal(err)
	}
	defer vh.Close()
	if err := d.AddService(vh); err != nil {
		t.Fatal(err)
	}

	cfg := dataservice.HedgeConfig{FrameDeadline: 100 * time.Millisecond, HedgeDelay: 30 * time.Millisecond}
	var latencies []time.Duration
	var reports []*dataservice.FrameReport
	var stalledDegraded, stalledHedged int
	var totalHedged, totalWins, totalDeclined int
	render := func() *dataservice.FrameReport {
		t.Helper()
		fb, rep, err := d.Render(context.Background(), dataservice.FrameRequest{W: 96, H: 96, Mode: dataservice.Tiles, Timers: cfg})
		if err != nil {
			t.Fatalf("frame lost: %v (report %+v)", err, rep)
		}
		if fb == nil || fb.W != 96 || fb.H != 96 {
			t.Fatalf("frame lost: bad framebuffer %+v", fb)
		}
		latencies = append(latencies, rep.Latency)
		reports = append(reports, rep)
		totalHedged += rep.Hedged
		totalWins += rep.HedgeWins
		totalDeclined += rep.Declined
		return rep
	}

	// Two healthy frames: all three peers serve, nothing degrades, and
	// the second becomes the last-good fallback for the stall window.
	for i := 0; i < 2; i++ {
		rep := render()
		if rep.Parts != 3 || len(rep.Degraded) != 0 {
			t.Fatalf("healthy frame %d: %+v", i, rep)
		}
	}

	// Stall the victim's replies for 500ms of virtual time: requests
	// keep flowing to it, but nothing comes back until the stall lifts.
	stallEnd := clk.Now().Add(500 * time.Millisecond)
	renderEnd.InjectFaults(netsim.NewFaults(71).StallUntil(stallEnd))

	// Render through the stall. Every frame must ship by deadline; the
	// victim's tile is hedged to a healthy peer or degraded to the
	// last-good frame, and its breaker accumulates deadline timeouts
	// until it opens and planning routes around it.
	for clk.Now().Before(stallEnd) {
		rep := render()
		stalledDegraded += len(rep.Degraded)
		stalledHedged += rep.Hedged
	}
	if openedDuringStall := d.Health("victim").State; openedDuringStall == dataservice.BreakerClosed {
		t.Fatalf("victim breaker still closed after stall window (transitions %v)", d.Health("victim").Transitions)
	}
	if stalledHedged == 0 && stalledDegraded == 0 {
		t.Fatal("stall window engaged neither hedging nor degradation")
	}

	// Recovery: after the stall lifts and the cooldown elapses, the
	// half-open probe must succeed, close the breaker, and return the
	// victim to the rotation. Keep rendering until it does (bounded by a
	// virtual-time budget, not an iteration guess).
	budget := clk.Now().Add(3 * time.Second)
	recovered := false
	for clk.Now().Before(budget) {
		rep := render()
		if d.Health("victim").State == dataservice.BreakerClosed && rep.Parts == 3 && len(rep.Degraded) == 0 {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("victim never recovered: breaker %v, transitions %v",
			d.Health("victim").State, d.Health("victim").Transitions)
	}
	if !containsSeq(d.Health("victim").Transitions, []dataservice.BreakerState{
		dataservice.BreakerOpen, dataservice.BreakerHalfOpen, dataservice.BreakerClosed,
	}) {
		t.Fatalf("breaker lifecycle open→half-open→closed missing: %v", d.Health("victim").Transitions)
	}

	// The healthy peers' breakers never opened.
	for _, name := range healthy {
		if tr := d.Health(name).Transitions; len(tr) != 0 {
			t.Fatalf("healthy peer breaker transitioned: %v", tr)
		}
	}

	// Latency distribution: zero frames lost (render fails the test
	// otherwise), and p99 within the deadline.
	if p99 := percentile(latencies, 0.99); p99 > cfg.FrameDeadline {
		t.Fatalf("p99 latency %v exceeds deadline %v; all: %v",
			p99, cfg.FrameDeadline, latencies)
	}
	if p50 := percentile(latencies, 0.5); p50 > cfg.FrameDeadline {
		t.Fatalf("p50 latency %v exceeds the deadline itself", p50)
	}
	t.Logf("frames %d (lost 0), p50 %v, p99 %v, hedged %d (wins %d), declined %d, degraded tiles %d during stall, breaker %v",
		len(latencies), percentile(latencies, 0.5), percentile(latencies, 0.99),
		totalHedged, totalWins, totalDeclined, stalledDegraded, d.Health("victim").Transitions)

	// --- trace trees: one per frame, structure matching its report ----
	// Root spans are created sequentially (render() is called serially),
	// so frame trees sorted by span ID line up 1:1 with reports.
	var frames []*telemetry.Tree
	for _, tr := range telemetry.BuildTrees(tracer.Spans()) {
		if tr.Span.Name == "frame" {
			frames = append(frames, tr)
		}
	}
	if len(frames) != len(reports) {
		t.Fatalf("%d frame trace trees for %d frames", len(frames), len(reports))
	}
	hedgedTreeChecked := false
	for i, tr := range frames {
		rep := reports[i]
		if got := tr.Count("render-tile"); got != rep.Parts {
			t.Fatalf("frame %d: %d primary launch spans for %d tiles\n%s",
				i, got, rep.Parts, telemetry.FormatTrees(frames[i:i+1]))
		}
		if got := tr.Count("render-tile-hedge"); got != rep.Hedged {
			t.Fatalf("frame %d: %d hedge spans, report says %d\n%s",
				i, got, rep.Hedged, telemetry.FormatTrees(frames[i:i+1]))
		}
		if tr.Count("plan") != 1 || tr.Count("composite") != 1 {
			t.Fatalf("frame %d: root does not cover plan through composite\n%s",
				i, telemetry.FormatTrees(frames[i:i+1]))
		}
		wantStatus := telemetry.StatusOK
		if len(rep.Degraded) > 0 {
			wantStatus = telemetry.StatusDegraded
		}
		if tr.Span.Status != wantStatus {
			t.Fatalf("frame %d: root status %q, report degraded=%v", i, tr.Span.Status, rep.Degraded)
		}
		for _, child := range tr.Children {
			s := child.Span
			if (s.Name == "render-tile" || s.Name == "render-tile-hedge") && s.Peer == "" {
				t.Fatalf("frame %d: launch span without peer label", i)
			}
		}
		// The satellite contract on a hedged frame: exactly one re-issue
		// span, and no tile lost (the frame assembled from live results).
		if !hedgedTreeChecked && rep.Hedged == 1 && len(rep.Degraded) == 0 {
			hedgedTreeChecked = true
			if tr.Count("render-tile-hedge") != 1 {
				t.Fatalf("hedged frame %d: want exactly one re-issue span\n%s",
					i, telemetry.FormatTrees(frames[i:i+1]))
			}
		}
	}
	if totalHedged > 0 && !hedgedTreeChecked {
		t.Log("no frame hedged exactly once with zero degradation; satellite checked by the deterministic trace test")
	}

	// --- metrics: aggregate counters agree with the reports -----------
	snap := reg.Snapshot()
	if got := snap.CounterValue("data", "hedge_frames_total", ""); got != int64(len(reports)) {
		t.Fatalf("hedge_frames_total %d, want %d", got, len(reports))
	}
	if got := snap.CounterValue("data", "hedge_reissues_total", ""); got != int64(totalHedged) {
		t.Fatalf("hedge_reissues_total %d, want %d", got, totalHedged)
	}
	if got := snap.CounterValue("data", "hedge_wins_total", ""); got != int64(totalWins) {
		t.Fatalf("hedge_wins_total %d, want %d", got, totalWins)
	}
	var declines int64
	for _, peer := range []string{"athlon", "xeon", "victim"} {
		declines += snap.CounterValue("data", "hedge_declines_total", peer)
	}
	// Declined counts typed refusals, which the per-peer counters count
	// too, so they cannot exceed it.
	if declines > int64(totalDeclined) {
		t.Fatalf("per-peer decline counters sum to %d, reports say %d", declines, totalDeclined)
	}
	if m, ok := snap.Get("data", "frame_latency_ns", ""); !ok || m.Count != int64(len(reports)) {
		t.Fatalf("frame_latency_ns count %d, want %d", m.Count, len(reports))
	}

	// Per-stage latency distributions (the EXPERIMENTS.md table).
	for _, m := range snap.Metrics {
		if m.Kind == telemetry.KindHistogram && m.Count > 0 {
			t.Logf("stage %s/%s: n=%d p50=%v p99=%v max=%v",
				m.Service, m.Name, m.Count, m.Quantile(0.50), m.Quantile(0.99), time.Duration(m.MaxNanos))
		}
	}
}
