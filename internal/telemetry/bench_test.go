package telemetry

import (
	"bytes"
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
	if err := WriteBenchArtifact(&buf, BenchKindScale, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"v": 1`) {
		t.Fatalf("artifact missing schema version field:\n%s", buf.String())
	}
	art, err := ReadBenchArtifact(&buf)
	if err != nil {
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
}

// TestBenchArtifactSiblings: kind-specific sibling payloads are merged
// into the envelope object (the shape raveload's artifacts pioneered),
// the result still decodes through the generic reader, and a sibling
// key colliding with the envelope or another sibling is an error
// rather than a silent overwrite.
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

	var buf bytes.Buffer
	err := WriteBenchArtifact(&buf, BenchKindRaster, reg.Snapshot(),
		struct {
			Scenario scenario `json:"scenario"`
			Results  results  `json:"results"`
		}{scenario{Frames: 30}, results{Speedup: 4.35}})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"kind": "raster"`, `"frames": 30`, `"speedup": 4.35`} {
		if !strings.Contains(out, want) {
			t.Errorf("merged artifact missing %s:\n%s", want, out)
		}
	}
	art, err := ReadBenchArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if art.V != BenchVersion || art.Kind != BenchKindRaster {
		t.Fatalf("sibling envelope: %+v", art)
	}
	if got := art.Snapshot.CounterValue("rb", "pixels_total", ""); got != 9 {
		t.Errorf("snapshot survived merge wrong: counter = %d, want 9", got)
	}

	// Deterministic output: the same write twice is byte-identical.
	var again bytes.Buffer
	if err := WriteBenchArtifact(&again, BenchKindRaster, reg.Snapshot(),
		struct {
			Scenario scenario `json:"scenario"`
			Results  results  `json:"results"`
		}{scenario{Frames: 30}, results{Speedup: 4.35}}); err != nil {
		t.Fatal(err)
	}
	if out2 := again.String(); out != out2 {
		t.Errorf("sibling merge not deterministic:\n%s\nvs\n%s", out, out2)
	}

	// Collisions: a sibling may not shadow an envelope field or repeat
	// another sibling's key; a non-object sibling cannot merge at all.
	var sink bytes.Buffer
	if err := WriteBenchArtifact(&sink, BenchKindRaster, reg.Snapshot(),
		struct {
			Kind string `json:"kind"`
		}{"evil"}); err == nil {
		t.Error("sibling shadowing the envelope's kind accepted")
	}
	if err := WriteBenchArtifact(&sink, BenchKindRaster, reg.Snapshot(),
		struct {
			A int `json:"a"`
		}{1},
		struct {
			A int `json:"a"`
		}{2}); err == nil {
		t.Error("two siblings with the same key accepted")
	}
	if err := WriteBenchArtifact(&sink, BenchKindRaster, reg.Snapshot(), 42); err == nil {
		t.Error("non-object sibling accepted")
	}
}

// TestBenchArtifactRejectsGarbage: a document without the envelope is an
// error, not a silently empty artifact — a bare telemetry.Snapshot
// included (no checked-in artifact was ever written without one).
func TestBenchArtifactRejectsGarbage(t *testing.T) {
	if _, err := ReadBenchArtifact(strings.NewReader(`{"unrelated": true}`)); err == nil {
		t.Error("garbage document decoded as a bench artifact")
	}
	if _, err := ReadBenchArtifact(strings.NewReader(`{"taken_nanos": 1500000000, "metrics": []}`)); err == nil {
		t.Error("bare snapshot decoded as a bench artifact")
	}
	if _, err := ReadBenchArtifact(strings.NewReader(`{"v": 3}`)); err == nil {
		t.Error("versioned artifact without kind accepted")
	}
	if _, err := ReadBenchArtifact(strings.NewReader(`not json`)); err == nil {
		t.Error("non-JSON accepted")
	}
}

// TestSummarizeQuantiles pins the exact-quantile math against a known
// sample set.
func TestSummarizeQuantiles(t *testing.T) {
	var samples []time.Duration
	for i := 100; i >= 1; i-- { // reversed: Summarize must sort
		samples = append(samples, time.Duration(i))
	}
	s := Summarize(samples)
	if s.Count != 100 || s.P50ns != 50 || s.P99ns != 99 || s.Maxns != 100 {
		t.Errorf("Summarize = %+v, want count=100 p50=50 p99=99 max=100", s)
	}
	if z := Summarize(nil); z != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v, want zero", z)
	}
}
