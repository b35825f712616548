package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/vclock"
)

// TestBenchArtifactRoundTrip: the current envelope round-trips with
// version and kind intact.
func TestBenchArtifactRoundTrip(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	clk.Advance(3 * time.Second)
	reg := NewRegistry(clk)
	reg.Counter("gw", "requests_total", "").Add(42)
	reg.Histogram("gw", "request_latency_ns", "").Observe(4 * time.Millisecond)

	var buf bytes.Buffer
	in := BenchArtifact{V: BenchVersion, Kind: BenchKindScale, Snapshot: reg.Snapshot()}
	if err := WriteBenchArtifact(&buf, &in, BenchKindScale); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"v": 2`) {
		t.Fatalf("artifact missing schema version field:\n%s", buf.String())
	}
	var art BenchArtifact
	if err := ReadBenchArtifact(&buf, &art, BenchKindScale); err != nil {
		t.Fatal(err)
	}
	if art.V != BenchVersion || art.Kind != BenchKindScale {
		t.Fatalf("round trip envelope: %+v", art)
	}
	if got := art.Snapshot.CounterValue("gw", "requests_total", ""); got != 42 {
		t.Errorf("round trip counter = %d, want 42", got)
	}
	if art.Snapshot.TakenNanos != int64(3*time.Second) {
		t.Errorf("round trip timestamp = %d", art.Snapshot.TakenNanos)
	}

	// The writer refuses a stale version or a kind the caller does not
	// write.
	if err := WriteBenchArtifact(&buf, &BenchArtifact{V: BenchVersion + 1, Kind: BenchKindScale}); err == nil {
		t.Error("artifact at a future version written")
	}
	if err := WriteBenchArtifact(&buf, &in, BenchKindRaster); err == nil {
		t.Error("scale artifact written as raster")
	}
}

// TestBenchArtifactSiblings: a harness's artifact embeds the envelope
// and adds its own fields; the fields sit beside v/kind/snapshot in one
// object, round-trip through the typed reader, the bare envelope reader
// still accepts the file, and the output is deterministic.
func TestBenchArtifactSiblings(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	reg := NewRegistry(clk)
	reg.Counter("rb", "pixels_total", "").Add(9)

	type scenario struct {
		Frames int `json:"frames"`
	}
	type results struct {
		Speedup float64 `json:"speedup"`
	}
	type harness struct {
		BenchArtifact
		Scenario scenario `json:"scenario"`
		Results  results  `json:"results"`
	}
	in := harness{
		BenchArtifact: BenchArtifact{V: BenchVersion, Kind: BenchKindRaster, Snapshot: reg.Snapshot()},
		Scenario:      scenario{Frames: 30},
		Results:       results{Speedup: 4.35},
	}

	var buf bytes.Buffer
	if err := WriteBenchArtifact(&buf, &in, BenchKindRaster); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"kind": "raster"`, `"frames": 30`, `"speedup": 4.35`} {
		if !strings.Contains(out, want) {
			t.Errorf("embedded artifact missing %s:\n%s", want, out)
		}
	}
	var back harness
	if err := ReadBenchArtifact(bytes.NewReader(buf.Bytes()), &back, BenchKindRaster); err != nil {
		t.Fatal(err)
	}
	if back.Scenario != in.Scenario || back.Results != in.Results {
		t.Errorf("harness fields round trip: %+v", back)
	}
	var env BenchArtifact
	if err := ReadBenchArtifact(bytes.NewReader(buf.Bytes()), &env); err != nil {
		t.Fatal(err)
	}
	if env.V != BenchVersion || env.Kind != BenchKindRaster {
		t.Fatalf("embedded envelope: %+v", env)
	}
	if got := env.Snapshot.CounterValue("rb", "pixels_total", ""); got != 9 {
		t.Errorf("snapshot survived embedding wrong: counter = %d, want 9", got)
	}

	// Deterministic output: the same write twice is byte-identical.
	var again bytes.Buffer
	if err := WriteBenchArtifact(&again, &in, BenchKindRaster); err != nil {
		t.Fatal(err)
	}
	if out2 := again.String(); out != out2 {
		t.Errorf("embedded write not deterministic:\n%s\nvs\n%s", out, out2)
	}
}

// TestBenchArtifactRejectsGarbage: a document without the envelope is an
// error, not a silently empty artifact — a bare telemetry.Snapshot
// included (no checked-in artifact was ever written without one) — and
// so is an envelope of a kind the caller does not read.
func TestBenchArtifactRejectsGarbage(t *testing.T) {
	read := func(doc string, kinds ...string) error {
		return ReadBenchArtifact(strings.NewReader(doc), &BenchArtifact{}, kinds...)
	}
	if read(`{"unrelated": true}`) == nil {
		t.Error("garbage document decoded as a bench artifact")
	}
	if read(`{"taken_nanos": 1500000000, "metrics": []}`) == nil {
		t.Error("bare snapshot decoded as a bench artifact")
	}
	if read(`{"v": 3}`) == nil {
		t.Error("versioned artifact without kind accepted")
	}
	if read(`not json`) == nil {
		t.Error("non-JSON accepted")
	}
	if read(`{"v":1,"kind":"raster","snapshot":{"taken_nanos":1}}`, BenchKindScale, BenchKindStorage) == nil {
		t.Error("raster artifact accepted by a scale reader")
	}
	if err := read(`{"v":1,"kind":"scale","snapshot":{"taken_nanos":1}}`, BenchKindScale); err != nil {
		t.Errorf("v1 artifact rejected: %v", err)
	}
}

// TestCheckedInBenchArtifacts reads every BENCH_*.json at the repo root
// through the envelope reader: the perf trajectory stays parseable, each
// file is at the current version, and every latency summary in it is
// the Summary of the histogram in the file's own snapshot that recorded
// it.
func TestCheckedInBenchArtifacts(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no checked-in BENCH_*.json found")
	}
	type series struct{ service, name, label string }
	fleet := map[string]series{
		"mutate": {"gw", "dispatch_latency_ns", "mutate"},
		"frame":  {"gw", "dispatch_latency_ns", "frame"},
	}
	latencies := map[string]map[string]series{
		BenchKindScale: fleet, BenchKindPartition: fleet, BenchKindStorage: fleet,
		BenchKindRaster: {
			"reference_frame":      {"rasterbench", "reference_frame_ns", ""},
			"fixed_frame":          {"rasterbench", "fixed_frame_ns", ""},
			"fresh_renderer_frame": {"rasterbench", "fresh_frame_ns", ""},
		},
	}
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		var art struct {
			BenchArtifact
			Results map[string]json.RawMessage `json:"results"`
		}
		err = ReadBenchArtifact(f, &art, BenchKindScale, BenchKindPartition, BenchKindStorage, BenchKindRaster)
		f.Close()
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if art.V != BenchVersion {
			t.Errorf("%s: v%d, want v%d (regenerate it)", p, art.V, BenchVersion)
		}
		if len(art.Snapshot.Metrics) == 0 {
			t.Errorf("%s: empty snapshot", p)
		}
		for block, s := range latencies[art.Kind] {
			var got Summary
			if err := json.Unmarshal(art.Results[block], &got); err != nil {
				t.Errorf("%s: results.%s: %v", p, block, err)
				continue
			}
			m, ok := art.Snapshot.Get(s.service, s.name, s.label)
			if want := m.Summary(); !ok || got.Count == 0 || got != want {
				t.Errorf("%s: results.%s = %+v, want %s/%s{%s} %+v", p, block, got, s.service, s.name, s.label, want)
			}
		}
	}
}

// TestSummarizeQuantiles pins Metric.Summary's nearest-rank reads on a
// known spread: 1..100 ms, observed in reverse.
func TestSummarizeQuantiles(t *testing.T) {
	reg := NewRegistry(vclock.NewVirtual(time.Unix(0, 0)))
	h := reg.Histogram("s", "h", "")
	for i := 100; i >= 1; i-- {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	m, _ := reg.Snapshot().Get("s", "h", "")
	// p50 is the 50th value, 50ms, in (48ms, 2^25 + 4·2^22]; p99 is the
	// 99th, 99ms, in (92.27ms, 2^26 + 4·2^23]; p0 is 1ms, in
	// (0.98ms, 2^20].
	want := Summary{Count: 100, P50ns: 50331648, P99ns: 100663296, Maxns: int64(100 * time.Millisecond)}
	if s := m.Summary(); s != want {
		t.Errorf("Summary = %+v, want %+v", s, want)
	}
	if q := m.Quantile(0); q != 1048576 {
		t.Errorf("p0 = %d, want 1048576", q)
	}
	if len(m.Buckets) != bucketIndex(int64(100*time.Millisecond))+1 {
		t.Errorf("snapshot keeps %d buckets, want through the last non-empty one", len(m.Buckets))
	}
	if z := (Metric{Kind: KindHistogram}).Summary(); z != (Summary{}) {
		t.Errorf("empty histogram Summary = %+v, want zero", z)
	}
}
