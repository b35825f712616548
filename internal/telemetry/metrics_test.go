package telemetry

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/vclock"
)

func TestCounterGaugeHistogram(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1000, 0))
	reg := NewRegistry(clk)

	c := reg.Counter("render", "frames_total", "")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Interning: same identity returns the same series.
	if reg.Counter("render", "frames_total", "") != c {
		t.Fatal("counter not interned")
	}

	g := reg.Gauge("render", "queue_depth", "")
	g.Set(3)
	g.Set(2)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}

	h := reg.Histogram("render", "render_ns", "")
	h.Observe(0)
	h.Observe(3 * time.Millisecond)
	h.Observe(70 * time.Millisecond)
	h.Observe(10 * time.Second) // overflow bucket
	snap := reg.Snapshot()
	if snap.TakenNanos != clk.Now().UnixNano() {
		t.Fatalf("snapshot timestamp %d, want %d", snap.TakenNanos, clk.Now().UnixNano())
	}
	m, ok := snap.Get("render", "render_ns", "")
	if !ok || m.Kind != KindHistogram {
		t.Fatalf("histogram metric missing from snapshot: %+v", snap)
	}
	if m.Count != 4 || m.MaxNanos != int64(10*time.Second) {
		t.Fatalf("histogram snapshot %+v", m)
	}
	if q := m.Quantile(0.5); q != 5*time.Millisecond {
		t.Fatalf("p50 = %v, want bucket bound 5ms", q)
	}
	if q := m.Quantile(0.99); q != 10*time.Second {
		t.Fatalf("p99 = %v, want max 10s (overflow bucket)", q)
	}
}

func TestSnapshotSortedAndDeterministic(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1000, 0))
	reg := NewRegistry(clk)
	// Register in scrambled order.
	reg.Counter("zeta", "a", "").Inc()
	reg.Counter("alpha", "z", "y").Inc()
	reg.Counter("alpha", "z", "x").Inc()
	reg.Gauge("alpha", "b", "").Set(7)

	snap := reg.Snapshot()
	want := []struct{ svc, name, label string }{
		{"alpha", "b", ""}, {"alpha", "z", "x"}, {"alpha", "z", "y"}, {"zeta", "a", ""},
	}
	if len(snap.Metrics) != len(want) {
		t.Fatalf("got %d metrics, want %d", len(snap.Metrics), len(want))
	}
	for i, w := range want {
		m := snap.Metrics[i]
		if m.Service != w.svc || m.Name != w.name || m.Label != w.label {
			t.Fatalf("metric %d = %s/%s/%s, want %s/%s/%s",
				i, m.Service, m.Name, m.Label, w.svc, w.name, w.label)
		}
	}

	// Two dumps of the same registry state are byte-identical.
	var a, b bytes.Buffer
	if err := WriteText(&a, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("text dumps differ:\n%s\n---\n%s", a.String(), b.String())
	}
	ja, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatal("JSON dumps differ")
	}
}

func TestDiff(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1000, 0))
	reg := NewRegistry(clk)
	reg.Counter("s", "c", "").Add(10)
	reg.Gauge("s", "g", "").Set(5)
	reg.Histogram("s", "h", "").Observe(time.Millisecond)
	before := reg.Snapshot()

	reg.Counter("s", "c", "").Add(7)
	reg.Gauge("s", "g", "").Set(2)
	reg.Histogram("s", "h", "").Observe(40 * time.Millisecond)
	reg.Counter("s", "new", "").Inc()
	after := reg.Snapshot()

	d := Diff(before, after)
	if got := d.CounterValue("s", "c", ""); got != 7 {
		t.Fatalf("counter diff = %d, want 7", got)
	}
	if got := d.CounterValue("s", "new", ""); got != 1 {
		t.Fatalf("new counter diff = %d, want 1", got)
	}
	if m, _ := d.Get("s", "g", ""); m.Value != 2 {
		t.Fatalf("gauge diff keeps cur: got %d, want 2", m.Value)
	}
	if m, _ := d.Get("s", "h", ""); m.Count != 1 || m.SumNanos != int64(40*time.Millisecond) {
		t.Fatalf("histogram diff %+v, want count 1 sum 40ms", m)
	}
}

func TestNilRegistryAndSeriesAreNoOps(t *testing.T) {
	var reg *Registry
	reg.Counter("s", "c", "").Inc()
	reg.Gauge("s", "g", "").Set(1)
	reg.Histogram("s", "h", "").Observe(time.Second)
	if snap := reg.Snapshot(); len(snap.Metrics) != 0 {
		t.Fatalf("nil registry snapshot %+v", snap)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	reg := NewRegistry(vclock.NewVirtual(time.Unix(1000, 0)))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				reg.Counter("s", "c", "").Inc()
				reg.Histogram("s", "h", "").Observe(time.Duration(j) * time.Microsecond)
				reg.Gauge("s", "g", "").Set(int64(j))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("s", "c", "").Value(); got != 8*200 {
		t.Fatalf("counter = %d, want %d", got, 8*200)
	}
	if m, _ := reg.Snapshot().Get("s", "h", ""); m.Count != 8*200 {
		t.Fatalf("histogram count = %d, want %d", m.Count, 8*200)
	}
}
