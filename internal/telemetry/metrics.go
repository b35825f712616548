// Package telemetry provides the session-clock instrumentation layer:
// a lock-cheap metrics registry (counters, gauges, log-linear
// histograms keyed by service/metric/label) and frame tracing (spans
// with virtual-clock timestamps carried across service boundaries).
//
// Everything is timestamped from a vclock.Clock, so chaos tests that
// run on a virtual clock observe exact, reproducible values: two runs
// of the same scenario yield byte-identical snapshots.
//
// Label cardinality contract: metric and label arguments must come
// from a bounded, compile-time-known set — metric names are string
// constants and labels are either constants or peer names passed
// through PeerLabel (peers form a small fixed fleet, not an unbounded
// population). The metriclabel ravelint analyzer enforces this.
package telemetry

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

// Metric kinds as they appear in snapshots.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Histogram buckets are log-linear and the same for every histogram, so
// snapshots stay comparable and Diff well-defined. Bucket 0 holds d <= 0
// (virtual-clock work legitimately takes zero time), bucket 1 (0, 1024ns];
// each octave (2^k, 2^(k+1)] for k = 10..33 splits into 8 equal
// sub-buckets, so above 1024ns a bound is at most 12.5% above any value in
// its bucket; the last bucket is the overflow, above 2^34ns (≈ 17.2s).
const (
	subBits    = 3
	minOctave  = 10 // bucket 1's bound is 2^minOctave
	maxOctave  = 34 // the overflow bucket starts above 2^maxOctave
	numBuckets = 2 + (maxOctave-minOctave)<<subBits + 1
	overflow   = numBuckets - 1
)

// bucketIndex is the bucket holding a duration of ns nanoseconds.
func bucketIndex(ns int64) int {
	switch {
	case ns <= 0:
		return 0
	case ns <= 1<<minOctave:
		return 1
	case ns > 1<<maxOctave:
		return overflow
	}
	v := uint64(ns - 1) // 2^k <= v < 2^(k+1)
	k := bits.Len64(v) - 1
	j := int(v>>(k-subBits)) & (1<<subBits - 1)
	return 2 + (k-minOctave)<<subBits + j
}

// bucketBound is bucket i's upper bound in nanoseconds: 0, 1024, then
// 2^k + (j+1)·2^(k-3) for sub-bucket j of octave k. The overflow bucket
// has none (Quantile reads the max there).
func bucketBound(i int) int64 {
	if i < 2 {
		return int64(i) << minOctave
	}
	k, j := minOctave+(i-2)>>subBits, int64((i-2)&(1<<subBits-1))
	return 1<<k + (j+1)<<(k-subBits)
}

// PeerLabel marks a peer/service name as a metric label. Peer names
// come from the deployment's fixed service fleet — a bounded set — so
// labelling by peer keeps constant cardinality. Passing a value
// through PeerLabel documents (and, via the metriclabel analyzer,
// certifies) that the caller is labelling by peer name and not by an
// unbounded value such as an address:port or a frame number.
func PeerLabel(peer string) string { return peer }

// key identifies one time series.
type key struct {
	service string
	metric  string
	label   string
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (n must be >= 0).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a log-linear duration histogram. Buckets are shared
// across all histograms (see bucketIndex); observation is a mutex
// bump of one bucket counter, cheap enough for per-tile hot paths.
type Histogram struct {
	mu      sync.Mutex
	buckets [numBuckets]int64
	count   int64
	sum     int64 // nanoseconds
	max     int64 // nanoseconds
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	i := bucketIndex(ns)
	h.mu.Lock()
	h.buckets[i]++
	h.count++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
	h.mu.Unlock()
}

// Registry holds all time series for a process (or, in tests, for a
// whole simulated deployment — services can share one registry).
// Lookup takes a read lock; the hot path (Add/Observe on an already
// interned series) is an atomic or a short mutex on the series itself.
type Registry struct {
	clock vclock.Clock

	mu       sync.RWMutex
	counters map[key]*Counter
	gauges   map[key]*Gauge
	hists    map[key]*Histogram
}

// NewRegistry returns a registry timestamping snapshots from clock
// (nil means the real clock).
func NewRegistry(clock vclock.Clock) *Registry {
	if clock == nil {
		clock = vclock.Real{}
	}
	return &Registry{
		clock:    clock,
		counters: make(map[key]*Counter),
		gauges:   make(map[key]*Gauge),
		hists:    make(map[key]*Histogram),
	}
}

// Counter interns and returns the counter for (service, metric,
// label). A nil registry returns nil; all series methods tolerate nil
// receivers, so instrumentation sites never need nil checks.
func (r *Registry) Counter(service, metric, label string) *Counter {
	if r == nil {
		return nil
	}
	k := key{service, metric, label}
	r.mu.RLock()
	c := r.counters[k]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[k]; c == nil {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge interns and returns the gauge for (service, metric, label).
func (r *Registry) Gauge(service, metric, label string) *Gauge {
	if r == nil {
		return nil
	}
	k := key{service, metric, label}
	r.mu.RLock()
	g := r.gauges[k]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[k]; g == nil {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram interns and returns the histogram for (service, metric,
// label).
func (r *Registry) Histogram(service, metric, label string) *Histogram {
	if r == nil {
		return nil
	}
	k := key{service, metric, label}
	r.mu.RLock()
	h := r.hists[k]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[k]; h == nil {
		h = &Histogram{}
		r.hists[k] = h
	}
	return h
}

// Metric is one time series in a snapshot.
type Metric struct {
	Service string `json:"service"`
	Name    string `json:"name"`
	Label   string `json:"label,omitempty"`
	Kind    string `json:"kind"`

	// Value is the counter count or gauge value; unused for histograms.
	Value int64 `json:"value,omitempty"`

	// Histogram fields.
	Count    int64   `json:"count,omitempty"`
	SumNanos int64   `json:"sum_nanos,omitempty"`
	MaxNanos int64   `json:"max_nanos,omitempty"`
	Buckets  []int64 `json:"buckets,omitempty"`
}

// Snapshot is a deterministic point-in-time copy of a registry:
// metrics sorted by (service, name, label), timestamped from the
// registry's clock.
type Snapshot struct {
	TakenNanos int64    `json:"taken_nanos"`
	Metrics    []Metric `json:"metrics"`
}

// Quantile is the one quantile routine: the q-th quantile (0..1) of a
// histogram metric by nearest rank over its cumulative buckets,
// returned as the upper bound of the bucket holding that rank (the max
// for the overflow bucket). Returns 0 for empty or non-histogram
// metrics.
func (m Metric) Quantile(q float64) time.Duration {
	if m.Kind != KindHistogram || m.Count == 0 {
		return 0
	}
	// Nearest-rank: the smallest observation with at least q*count
	// observations at or below it, so p99 of a small sample lands in its
	// max's bucket.
	rank := int64(math.Ceil(q*float64(m.Count))) - 1
	if rank < 0 {
		rank = 0
	}
	var cum int64
	for i, n := range m.Buckets {
		cum += n
		if cum > rank {
			if i == overflow {
				return time.Duration(m.MaxNanos)
			}
			return time.Duration(bucketBound(i))
		}
	}
	return time.Duration(m.MaxNanos)
}

// Summary is the metric's BENCH_*.json latency block, read through
// Quantile.
func (m Metric) Summary() Summary {
	return Summary{
		Count: m.Count,
		P50ns: int64(m.Quantile(0.50)),
		P99ns: int64(m.Quantile(0.99)),
		Maxns: m.MaxNanos,
	}
}

// Snapshot copies every series into a sorted, timestamped Snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	snap := Snapshot{TakenNanos: r.clock.Now().UnixNano()}
	r.mu.RLock()
	for k, c := range r.counters {
		snap.Metrics = append(snap.Metrics, Metric{
			Service: k.service, Name: k.metric, Label: k.label,
			Kind: KindCounter, Value: c.Value(),
		})
	}
	for k, g := range r.gauges {
		snap.Metrics = append(snap.Metrics, Metric{
			Service: k.service, Name: k.metric, Label: k.label,
			Kind: KindGauge, Value: g.Value(),
		})
	}
	for k, h := range r.hists {
		h.mu.Lock()
		last := len(h.buckets)
		for last > 0 && h.buckets[last-1] == 0 {
			last--
		}
		m := Metric{
			Service: k.service, Name: k.metric, Label: k.label,
			Kind: KindHistogram, Count: h.count, SumNanos: h.sum, MaxNanos: h.max,
			Buckets: append([]int64(nil), h.buckets[:last]...),
		}
		h.mu.Unlock()
		snap.Metrics = append(snap.Metrics, m)
	}
	r.mu.RUnlock()
	sortMetrics(snap.Metrics)
	return snap
}

func sortMetrics(ms []Metric) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		if a.Service != b.Service {
			return a.Service < b.Service
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Label < b.Label
	})
}

// Diff returns cur minus prev: counters and histograms subtract
// (series absent from prev count from zero), gauges keep cur's value.
// The result is timestamped from cur and sorted. Series present only
// in prev are dropped. Use it to isolate one benchmark run's worth of
// activity from a shared registry.
func Diff(prev, cur Snapshot) Snapshot {
	type id struct{ service, name, label string }
	base := make(map[id]Metric, len(prev.Metrics))
	for _, m := range prev.Metrics {
		base[id{m.Service, m.Name, m.Label}] = m
	}
	out := Snapshot{TakenNanos: cur.TakenNanos}
	for _, m := range cur.Metrics {
		p, ok := base[id{m.Service, m.Name, m.Label}]
		if ok && p.Kind == m.Kind {
			switch m.Kind {
			case KindCounter:
				m.Value -= p.Value
			case KindHistogram:
				m.Count -= p.Count
				m.SumNanos -= p.SumNanos
				bs := append([]int64(nil), m.Buckets...)
				for i := range bs {
					if i < len(p.Buckets) {
						bs[i] -= p.Buckets[i]
					}
				}
				m.Buckets = bs
			}
		}
		out.Metrics = append(out.Metrics, m)
	}
	sortMetrics(out.Metrics)
	return out
}

// Get returns the metric with the given identity from the snapshot,
// and whether it was present.
func (s Snapshot) Get(service, name, label string) (Metric, bool) {
	for _, m := range s.Metrics {
		if m.Service == service && m.Name == name && m.Label == label {
			return m, true
		}
	}
	return Metric{}, false
}

// CounterValue is a convenience lookup: the value of a counter metric,
// zero when absent.
func (s Snapshot) CounterValue(service, name, label string) int64 {
	m, _ := s.Get(service, name, label)
	return m.Value
}
