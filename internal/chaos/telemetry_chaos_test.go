package chaos

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/compositor"
	"repro/internal/dataservice"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// stubTile is a tile renderer that answers instantly (or declines
// everything), so a whole hedged frame completes without anyone
// advancing the virtual clock — the fully deterministic scenario the
// snapshot-identity assertion needs.
type stubTile struct {
	name    string
	decline bool
	shade   uint8

	mu  sync.Mutex
	tcs []telemetry.SpanContext
}

func (s *stubTile) Name() string { return s.name }

func (s *stubTile) Capacity() (transport.CapacityReport, error) {
	return transport.CapacityReport{Name: s.name, PolysPerSecond: 1e6, TargetFPS: 10}, nil
}

func (s *stubTile) Render(job dataservice.RenderJob) (compositor.Tile, error) {
	rect, tc := job.Rect, job.Trace
	s.mu.Lock()
	s.tcs = append(s.tcs, tc)
	s.mu.Unlock()
	if s.decline {
		return compositor.Tile{}, &renderservice.ErrOverloaded{Service: s.name, Reason: renderservice.ReasonQueueFull}
	}
	fb := raster.NewFramebuffer(rect.Dx(), rect.Dy())
	for i := range fb.Color {
		fb.Color[i] = s.shade
	}
	return compositor.Tile{Rect: rect, FB: fb, Version: 1}, nil
}

func (s *stubTile) contexts() []telemetry.SpanContext {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]telemetry.SpanContext(nil), s.tcs...)
}

// TestTelemetryDeterministicTraceAndSnapshot runs one hedged tile
// frame — two healthy peers plus one that declines, forcing exactly one
// re-issue — entirely on a non-advancing virtual clock, and asserts the
// session-clock telemetry contract:
//
//   - the frame yields exactly one trace tree whose root "frame" span
//     covers planning, per-peer fan-out, the hedge re-issue and the
//     composite;
//   - the declined peer's launch span carries the declined status and
//     the single hedge span went to a different peer and succeeded;
//   - the span context each renderer received belongs to the frame's
//     trace (cross-service propagation);
//   - two runs of the identical scenario produce byte-identical metric
//     snapshots (text and JSON encodings both).
func TestTelemetryDeterministicTraceAndSnapshot(t *testing.T) {
	type outcome struct {
		text    string
		jsonDoc string
		trees   []*telemetry.Tree
		rep     *dataservice.HedgeReport
		stubs   []*stubTile
	}

	run := func() outcome {
		t.Helper()
		// Nonzero epoch: at time.Unix(0,0) a deadline's UnixNano() is 0,
		// which the wire protocol reads as "no deadline". No advance
		// goroutine: declines trigger immediate hedging, instant stubs
		// answer without sleeping, so no timer ever needs to fire.
		clk := vclock.NewVirtual(time.Unix(1000, 0))
		reg := telemetry.NewRegistry(clk)
		tracer := telemetry.NewTracer(clk)

		svc := dataservice.New(dataservice.Config{Name: "data", Clock: clk, Metrics: reg, Tracer: tracer})
		sess := distSession(t, svc, 12000, 6)
		d := sess.NewDistributor(balance.DefaultThresholds())

		stubs := []*stubTile{
			{name: "athlon", shade: 40},
			{name: "grumpy", decline: true},
			{name: "xeon", shade: 90},
		}
		for _, st := range stubs {
			if err := d.AddService(st); err != nil {
				t.Fatal(err)
			}
		}

		cfg := dataservice.HedgeConfig{FrameDeadline: 100 * time.Millisecond, HedgeDelay: 30 * time.Millisecond}
		fb, rep, err := d.RenderTilesHedged(context.Background(), 96, 96, cfg)
		if err != nil {
			t.Fatalf("frame lost: %v (report %+v)", err, rep)
		}
		if fb == nil || fb.W != 96 || fb.H != 96 {
			t.Fatalf("bad framebuffer %+v", fb)
		}

		snap := reg.Snapshot()
		var text strings.Builder
		if err := telemetry.WriteText(&text, snap); err != nil {
			t.Fatal(err)
		}
		jsonDoc, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{
			text:    text.String(),
			jsonDoc: string(jsonDoc),
			trees:   telemetry.BuildTrees(tracer.Spans()),
			rep:     rep,
			stubs:   stubs,
		}
	}

	first := run()

	// --- trace-tree structure ---------------------------------------
	if len(first.trees) != 1 {
		t.Fatalf("want exactly one trace tree, got %d:\n%s", len(first.trees), telemetry.FormatTrees(first.trees))
	}
	tree := first.trees[0]
	dump := telemetry.FormatTrees(first.trees)
	root := tree.Span
	if root.Name != "frame" || root.Service != "data" {
		t.Fatalf("root span = %s/%s, want data/frame\n%s", root.Service, root.Name, dump)
	}
	if root.Status != telemetry.StatusOK {
		t.Fatalf("root status %q, want ok (no degradation in this scenario)\n%s", root.Status, dump)
	}
	if tree.Count("plan") != 1 || tree.Count("composite") != 1 {
		t.Fatalf("root must cover planning and compositing\n%s", dump)
	}
	if got := tree.Count("render-tile"); got != first.rep.Tiles {
		t.Fatalf("%d primary launch spans for %d tiles\n%s", got, first.rep.Tiles, dump)
	}
	// The satellite contract: a hedged frame's trace shows exactly one
	// re-issue span, and no tile was lost (every region assembled from a
	// live result — nothing degraded).
	if got := tree.Count("render-tile-hedge"); got != 1 || first.rep.Hedged != 1 {
		t.Fatalf("hedge spans %d (report %d), want exactly 1\n%s", got, first.rep.Hedged, dump)
	}
	if len(first.rep.Degraded) != 0 {
		t.Fatalf("lost/degraded tiles %v, want none\n%s", first.rep.Degraded, dump)
	}

	// Per-peer children: every launch span names its peer; the declined
	// peer's span carries the declined status; the hedge went elsewhere
	// and succeeded. The root's interval covers every child (fan-out
	// through composite).
	peers := map[string]bool{}
	for _, child := range tree.Children {
		s := child.Span
		if s.StartNanos < root.StartNanos || s.EndNanos > root.EndNanos {
			t.Fatalf("child %s [%d,%d] outside root [%d,%d]", s.Name, s.StartNanos, s.EndNanos, root.StartNanos, root.EndNanos)
		}
		switch s.Name {
		case "render-tile", "render-tile-hedge":
			if s.Peer == "" {
				t.Fatalf("launch span without peer\n%s", dump)
			}
			peers[s.Peer] = true
			if s.Peer == "grumpy" && s.Status != telemetry.StatusDeclined {
				t.Fatalf("grumpy's span status %q, want declined\n%s", s.Status, dump)
			}
			if s.Name == "render-tile-hedge" {
				if s.Peer == "grumpy" {
					t.Fatalf("hedge re-issued to the declining peer\n%s", dump)
				}
				if s.Status != telemetry.StatusOK {
					t.Fatalf("hedge span status %q, want ok\n%s", s.Status, dump)
				}
			}
		}
	}
	for _, want := range []string{"athlon", "grumpy", "xeon"} {
		if !peers[want] {
			t.Fatalf("no launch span for peer %s\n%s", want, dump)
		}
	}

	// Cross-service propagation: every renderer saw a span context from
	// this frame's trace.
	for _, st := range first.stubs {
		for _, tc := range st.contexts() {
			if !tc.Valid() || tc.Trace != root.Trace {
				t.Fatalf("%s received context %+v, want trace %d", st.name, tc, root.Trace)
			}
		}
	}

	// --- metric snapshot sanity --------------------------------------
	for _, line := range []string{
		"data counter hedge_reissues_total 1",
		"data counter hedge_declines_total{grumpy} 1",
		"data counter hedge_frames_total 1",
		"data counter hedge_degraded_tiles_total 0",
		"data gauge hedge_available_peers 3",
	} {
		if !strings.Contains(first.text, line) {
			t.Fatalf("snapshot missing %q:\n%s", line, first.text)
		}
	}

	// --- determinism: identical run, identical bytes ------------------
	second := run()
	if first.text != second.text {
		t.Fatalf("text snapshots differ across identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", first.text, second.text)
	}
	if first.jsonDoc != second.jsonDoc {
		t.Fatalf("json snapshots differ across identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", first.jsonDoc, second.jsonDoc)
	}
	if telemetry.FormatTrees(first.trees) != telemetry.FormatTrees(second.trees) {
		t.Fatalf("trace trees differ across identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s",
			telemetry.FormatTrees(first.trees), telemetry.FormatTrees(second.trees))
	}
}

// TestTelemetryRegistryConcurrentSnapshotDiff hammers one Registry from
// many writer goroutines — counters, gauges and histograms on distinct
// per-writer series — while a reader concurrently takes Snapshot after
// Snapshot and Diffs each against the last. Run under -race (the chaos
// suite always is), this is the data-race probe for the registry; the
// semantic assertions pin what a torn read would corrupt:
//
//   - counters are monotone across successive snapshots and every Diff
//     delta is non-negative;
//   - each histogram snapshot is internally consistent (bucket sum ==
//     count), since Snapshot copies a series under its lock;
//   - the Diff deltas telescope: summed over all rounds they equal the
//     final settled value, nothing double-counted or dropped;
//   - the final snapshot carries exactly writers × perWriter counts.
func TestTelemetryRegistryConcurrentSnapshotDiff(t *testing.T) {
	const writers = 8
	const perWriter = 2000

	clk := vclock.NewVirtual(time.Unix(0, 0))
	reg := telemetry.NewRegistry(clk)
	labels := [writers]string{"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(label string) {
			defer wg.Done()
			c := reg.Counter("race", "writes_total", telemetry.PeerLabel(label))
			g := reg.Gauge("race", "inflight", telemetry.PeerLabel(label))
			h := reg.Histogram("race", "write_latency_ns", telemetry.PeerLabel(label))
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(time.Duration(i%7) * time.Millisecond)
			}
		}(labels[w])
	}
	writersDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(writersDone)
	}()

	sumBuckets := func(bs []int64) int64 {
		var n int64
		for _, b := range bs {
			n += b
		}
		return n
	}
	checkSnap := func(prev, cur telemetry.Snapshot) telemetry.Snapshot {
		t.Helper()
		d := telemetry.Diff(prev, cur)
		for _, m := range d.Metrics {
			switch m.Kind {
			case telemetry.KindCounter:
				if m.Value < 0 {
					t.Fatalf("counter %s{%s} went backwards: diff %d", m.Name, m.Label, m.Value)
				}
			case telemetry.KindHistogram:
				if m.Count < 0 || m.SumNanos < 0 {
					t.Fatalf("histogram %s{%s} went backwards: count %d sum %d", m.Name, m.Label, m.Count, m.SumNanos)
				}
			}
		}
		for _, m := range cur.Metrics {
			if m.Kind == telemetry.KindHistogram && sumBuckets(m.Buckets) != m.Count {
				t.Fatalf("torn histogram read: %s{%s} buckets sum %d != count %d", m.Name, m.Label, sumBuckets(m.Buckets), m.Count)
			}
		}
		return d
	}

	deltas := make(map[string]int64, writers)
	prev := reg.Snapshot()
	for _, m := range prev.Metrics {
		if m.Kind == telemetry.KindCounter && m.Name == "writes_total" {
			deltas[m.Label] += m.Value
		}
	}
	rounds := 0
	for {
		select {
		case <-writersDone:
			// One closing round so the deltas cover every write.
			cur := reg.Snapshot()
			d := checkSnap(prev, cur)
			for _, m := range d.Metrics {
				if m.Kind == telemetry.KindCounter && m.Name == "writes_total" {
					deltas[m.Label] += m.Value
				}
			}
			var total int64
			for _, label := range labels {
				if got := deltas[label]; got != perWriter {
					t.Errorf("telescoped diffs for %s = %d, want %d", label, got, perWriter)
				}
				total += deltas[label]
				m, ok := cur.Get("race", "writes_total", label)
				if !ok || m.Value != perWriter {
					t.Errorf("final snapshot writes_total{%s} = %d (ok=%v), want %d", label, m.Value, ok, perWriter)
				}
				hm, ok := cur.Get("race", "write_latency_ns", label)
				if !ok || hm.Count != perWriter {
					t.Errorf("final snapshot write_latency_ns{%s} count = %d (ok=%v), want %d", label, hm.Count, ok, perWriter)
				}
			}
			if total != writers*perWriter {
				t.Errorf("telescoped total %d, want %d", total, writers*perWriter)
			}
			if rounds == 0 {
				t.Error("reader never completed a mid-flight snapshot round")
			}
			t.Logf("%d concurrent snapshot/diff rounds over %d writers × %d writes, all consistent", rounds, writers, perWriter)
			return
		default:
			cur := reg.Snapshot()
			d := checkSnap(prev, cur)
			for _, m := range d.Metrics {
				if m.Kind == telemetry.KindCounter && m.Name == "writes_total" {
					deltas[m.Label] += m.Value
				}
			}
			prev = cur
			rounds++
			runtime.Gosched()
		}
	}
}
