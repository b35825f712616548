package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
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
	h.Observe(20 * time.Second) // overflow bucket
	snap := reg.Snapshot()
	if snap.TakenNanos != clk.Now().UnixNano() {
		t.Fatalf("snapshot timestamp %d, want %d", snap.TakenNanos, clk.Now().UnixNano())
	}
	m, ok := snap.Get("render", "render_ns", "")
	if !ok || m.Kind != KindHistogram {
		t.Fatalf("histogram metric missing from snapshot: %+v", snap)
	}
	if m.Count != 4 || m.MaxNanos != int64(20*time.Second) || len(m.Buckets) != numBuckets {
		t.Fatalf("histogram snapshot %+v", m)
	}
	// 3ms lies in (2^21 + 3·2^18, 2^21 + 4·2^18] ns.
	if q := m.Quantile(0.5); q != 3145728 {
		t.Fatalf("p50 = %v, want bucket bound 3.145728ms", q)
	}
	if q := m.Quantile(0.99); q != 20*time.Second {
		t.Fatalf("p99 = %v, want max 20s (overflow bucket)", q)
	}
}

// TestBucketLayout pins the log-linear layout: where the edges land,
// that every finite bound is the last value of its bucket, that no
// octave bucket is wider than 1/8 of its lower edge, and that the
// sub-millisecond range a collab_edit commit runs at spreads over
// several buckets.
func TestBucketLayout(t *testing.T) {
	if numBuckets != 195 {
		t.Fatalf("numBuckets = %d, want 195", numBuckets)
	}
	for _, c := range []struct {
		ns   int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {1024, 1}, {1025, 2}, {1152, 2}, {1153, 3},
		{2048, 9}, {2049, 10},
		{int64(2 * time.Millisecond), 89}, {int64(25 * time.Millisecond), 117},
		{1 << 34, overflow - 1}, {1<<34 + 1, overflow}, {math.MaxInt64, overflow},
	} {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	if b := bucketBound(89); b != 2097152 {
		t.Errorf("2ms bucket bound = %d, want 2097152", b)
	}
	if b := bucketBound(117); b != 25165824 {
		t.Errorf("25ms bucket bound = %d, want 25165824", b)
	}
	for i := 0; i < overflow; i++ {
		b := bucketBound(i)
		if got := bucketIndex(b); got != i {
			t.Errorf("bucketIndex(bound(%d) = %d) = %d", i, b, got)
		}
		if got := bucketIndex(b + 1); got != i+1 {
			t.Errorf("bucketIndex(bound(%d)+1 = %d) = %d, want %d", i, b+1, got, i+1)
		}
		if i >= 2 {
			if lo := bucketBound(i - 1); (b-lo)*8 > lo {
				t.Errorf("bucket %d (%d, %d] wider than 1/8 of its lower edge", i, lo, b)
			}
		}
	}

	spanned := map[int]bool{}
	for d := 600 * time.Microsecond; d <= 1100*time.Microsecond; d += 10 * time.Microsecond {
		spanned[bucketIndex(int64(d))] = true
	}
	if len(spanned) < 3 {
		t.Errorf("600–1100µs spans %d buckets, want >= 3", len(spanned))
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
