package rasterbench

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// stepClock is a deterministic Clock whose Now() advances a fixed
// amount per call, so timed passes produce exact, repeatable samples.
type stepClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

var _ vclock.Clock = (*stepClock)(nil)

func newStepClock(step time.Duration) *stepClock {
	return &stepClock{now: time.Unix(0, 0), step: step}
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

func (c *stepClock) Sleep(d time.Duration)                  {}
func (c *stepClock) After(d time.Duration) <-chan time.Time { return nil }

// smallScenario keeps harness tests fast: a tiny galleon at a tiny
// viewport, few frames.
func smallScenario() Scenario {
	return Scenario{Triangles: 300, Width: 48, Height: 48, Frames: 3, Workers: 2}
}

// TestRunRasterStructure smoke-tests the harness end to end on a
// deterministic clock: the artifact must be well-formed, parity must
// hold (the differential suite's guarantee carried into the bench), and
// every stage must have timed Frames samples. It deliberately does NOT
// assert wall-time thresholds — the clock is fake and the scene tiny.
func TestRunRasterStructure(t *testing.T) {
	art, err := RunRaster(Config{Scenario: smallScenario(), Clock: newStepClock(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if art.V != telemetry.BenchVersion || art.Kind != telemetry.BenchKindRaster {
		t.Fatalf("envelope = v%d kind %q", art.V, art.Kind)
	}
	if !art.Results.ParityOK {
		t.Error("fixed and reference cores disagreed inside the bench harness")
	}
	if got := art.Results.FixedFrame.Count; got != 3 {
		t.Errorf("fixed frame samples = %d, want 3", got)
	}
	if got := art.Results.ReferenceFrame.Count; got != 3 {
		t.Errorf("reference frame samples = %d, want 3", got)
	}
	if got := art.Results.FreshRendererFrame.Count; got != 3 {
		t.Errorf("fresh-renderer frame samples = %d, want 3", got)
	}
	if art.Results.PixelsFilled <= 0 {
		t.Errorf("pixels filled = %d, want > 0", art.Results.PixelsFilled)
	}
	if art.Results.TrianglesDrawn <= 0 {
		t.Errorf("triangles drawn = %d, want > 0", art.Results.TrianglesDrawn)
	}
	// With a uniform step clock every pass costs the same, so the
	// derived ratios are exactly computable: each frame is 2 ticks
	// (start + end Now() calls each advance the clock once... the end
	// call of frame N is the start baseline of N+1's delta through the
	// shared clock), giving speedup 1 and utilization 1/Workers.
	if art.Results.Speedup <= 0 {
		t.Errorf("speedup = %v, want > 0", art.Results.Speedup)
	}
	if art.Results.BandUtilization <= 0 {
		t.Errorf("band utilization = %v, want > 0", art.Results.BandUtilization)
	}
}

// TestSummariesAreSnapshotHistograms: every frame block in the results
// is the Summary of the histogram in the artifact's own snapshot that
// recorded the pass, and the parallel pass is recorded too.
func TestSummariesAreSnapshotHistograms(t *testing.T) {
	art, err := RunRaster(Config{Scenario: smallScenario(), Clock: newStepClock(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]telemetry.Summary{
		"reference_frame_ns": art.Results.ReferenceFrame,
		"fixed_frame_ns":     art.Results.FixedFrame,
		"fresh_frame_ns":     art.Results.FreshRendererFrame,
	} {
		m, ok := art.Snapshot.Get("rasterbench", name, "")
		if !ok || got != m.Summary() {
			t.Errorf("%s: results %+v, snapshot %+v", name, got, m.Summary())
		}
	}
	if m, _ := art.Snapshot.Get("rasterbench", "parallel_frame_ns", ""); m.Count != 3 {
		t.Errorf("parallel pass recorded %d frames, want 3", m.Count)
	}
}

// TestRunRejectsBadConfig pins the input validation.
func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := RunRaster(Config{Scenario: Scenario{}, Clock: newStepClock(1)}); err == nil {
		t.Error("RunRaster accepted an empty scenario")
	}
	if _, err := RunRaster(Config{Scenario: smallScenario()}); err == nil {
		t.Error("RunRaster accepted a nil clock")
	}
}

// TestArtifactRoundTrip writes the artifact through the shared
// telemetry writer and reads it back: fields survive, the bare envelope
// reader accepts the file, and the raster reader rejects another kind.
func TestArtifactRoundTrip(t *testing.T) {
	rast, err := RunRaster(Config{Scenario: smallScenario(), Clock: newStepClock(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	var rb, other bytes.Buffer
	if err := telemetry.WriteBenchArtifact(&rb, &rast, telemetry.BenchKindRaster); err != nil {
		t.Fatal(err)
	}
	scale := telemetry.BenchArtifact{V: telemetry.BenchVersion, Kind: telemetry.BenchKindScale, Snapshot: rast.Snapshot}
	if err := telemetry.WriteBenchArtifact(&other, &scale); err != nil {
		t.Fatal(err)
	}

	var back RasterArtifact
	if err := telemetry.ReadBenchArtifact(bytes.NewReader(rb.Bytes()), &back, telemetry.BenchKindRaster); err != nil {
		t.Fatal(err)
	}
	if back.Scenario != rast.Scenario || back.Results != rast.Results {
		t.Errorf("raster round trip changed payload:\n got %+v\nwant %+v", back.Results, rast.Results)
	}

	// The bare envelope reader must accept the file.
	var env telemetry.BenchArtifact
	if err := telemetry.ReadBenchArtifact(bytes.NewReader(rb.Bytes()), &env); err != nil {
		t.Fatalf("envelope reader rejected the artifact: %v", err)
	}
	if env.Kind != telemetry.BenchKindRaster {
		t.Errorf("envelope reader decoded kind %q", env.Kind)
	}

	// Cross-kind reads must fail loudly.
	if err := telemetry.ReadBenchArtifact(bytes.NewReader(other.Bytes()), &RasterArtifact{}, telemetry.BenchKindRaster); err == nil {
		t.Error("raster reader accepted a scale artifact")
	}

	// Writers must refuse mismatched envelopes.
	rast.Kind = telemetry.BenchKindScale
	if err := telemetry.WriteBenchArtifact(&bytes.Buffer{}, &rast, telemetry.BenchKindRaster); err == nil {
		t.Error("raster writer accepted a scale kind")
	}
}

// synthetic builds an artifact with the given knobs for threshold
// tests: no rendering, just the numbers the checks read.
func syntheticRaster(parity bool, speedup, pps float64) RasterArtifact {
	return RasterArtifact{
		BenchArtifact: telemetry.BenchArtifact{V: telemetry.BenchVersion, Kind: telemetry.BenchKindRaster},
		Scenario:      DefaultScenario(30),
		Results: RasterResults{
			ParityOK: parity, Speedup: speedup, PixelsPerSec: pps,
			PixelsFilled: 1000, TrianglesDrawn: 500,
			FixedFrame: telemetry.Summary{Count: 30, P50ns: 1, P99ns: 2, Maxns: 2},
		},
	}
}

func TestCheckRasterThresholds(t *testing.T) {
	good := syntheticRaster(true, 3.5, 1e8)
	if v := CheckRaster(good, nil); len(v) != 0 {
		t.Errorf("clean run flagged: %v", v)
	}
	base := syntheticRaster(true, 3.5, 1e8)
	if v := CheckRaster(good, &base); len(v) != 0 {
		t.Errorf("clean run flagged against equal baseline: %v", v)
	}

	if v := CheckRaster(syntheticRaster(false, 3.5, 1e8), nil); len(v) != 1 ||
		!strings.Contains(v[0], "parity") {
		t.Errorf("parity failure not flagged: %v", v)
	}
	if v := CheckRaster(syntheticRaster(true, 0.8, 1e8), nil); len(v) != 1 ||
		!strings.Contains(v[0], "speedup") {
		t.Errorf("speedup regression not flagged: %v", v)
	}
	// 1.2x is a normal in-run margin, not a regression.
	if v := CheckRaster(syntheticRaster(true, 1.2, 1e8), nil); len(v) != 0 {
		t.Errorf("healthy in-run speedup flagged: %v", v)
	}
	// Throughput floor is baseline/8: 10x slower trips, 4x slower passes.
	if v := CheckRaster(syntheticRaster(true, 3.5, 1e7), &base); len(v) != 1 ||
		!strings.Contains(v[0], "throughput") {
		t.Errorf("throughput cliff not flagged: %v", v)
	}
	if v := CheckRaster(syntheticRaster(true, 3.5, 2.5e7), &base); len(v) != 0 {
		t.Errorf("within-noise slowdown flagged: %v", v)
	}
}
