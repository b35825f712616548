// Package rasterbench is the single-node rasterizer benchmark harness
// behind `ravebench -extra raster` and `make raster`. It measures the
// fixed-point scanline core against the float reference core on the
// galleon scene and packages the result into the versioned
// BENCH_raster.json artifact (telemetry.BenchArtifact envelope) whose
// checked-in copy is the baseline `make raster` gates against. The
// render→composite→encode path is timed through the real services by
// bench/ (see bench/README.md), not here.
//
// The harness takes its time source as a vclock.Clock so tests can
// drive it deterministically; ravebench passes vclock.Real{}, the one
// place sanctioned to measure wall time.
package rasterbench

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// Scenario describes one benchmark run's shape.
type Scenario struct {
	// Triangles is the galleon tessellation budget.
	Triangles int `json:"triangles"`
	// Width, Height are the framebuffer dimensions.
	Width  int `json:"width"`
	Height int `json:"height"`
	// Frames is how many frames each timed pass renders.
	Frames int `json:"frames"`
	// Workers is the band-parallel worker count for the utilization
	// pass (the timed passes are single-threaded).
	Workers int `json:"workers"`
}

// DefaultScenario mirrors the repo's historical galleon benchmark:
// ~5.5k-triangle galleon at 200x200.
func DefaultScenario(frames int) Scenario {
	return Scenario{Triangles: 5500, Width: 200, Height: 200, Frames: frames, Workers: 4}
}

// Config is the harness input.
type Config struct {
	Scenario Scenario
	// Clock is the time source for stage timing.
	Clock vclock.Clock
}

// total sums a sample set.
func total(samples []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range samples {
		t += d
	}
	return t
}

// RasterResults is BENCH_raster.json's summary block.
type RasterResults struct {
	// ReferenceFrame and FixedFrame are single-threaded frame times for
	// the float reference core and the fixed-point core.
	ReferenceFrame telemetry.Summary `json:"reference_frame"`
	FixedFrame     telemetry.Summary `json:"fixed_frame"`
	// Speedup is reference p50 / fixed p50, same machine same run — the
	// machine-independent regression invariant. Medians, not totals: one
	// GC pause in a short run would skew a total-time ratio.
	Speedup float64 `json:"speedup"`
	// PixelsPerSec is depth-pass pixel writes per second in the fixed
	// single-threaded pass.
	PixelsPerSec float64 `json:"pixels_per_sec"`
	// BandUtilization is parallel efficiency across Workers bands:
	// T_single / (Workers x T_parallel), 1.0 = perfect scaling.
	BandUtilization float64 `json:"band_utilization"`
	// ParityOK records the in-run differential check: fixed and
	// reference cores produced byte-identical framebuffers.
	ParityOK bool `json:"parity_ok"`
	// PixelsFilled and TrianglesDrawn size the workload.
	PixelsFilled   int64 `json:"pixels_filled"`
	TrianglesDrawn int64 `json:"triangles_drawn"`
}

// newRenderer builds a renderer wired to the run's metrics registry.
func newRenderer(w, h int, met *telemetry.Registry, workers int) (*raster.Renderer, *raster.Framebuffer) {
	fb := raster.NewFramebuffer(w, h)
	r := raster.New(fb)
	r.Opts.Workers = workers
	r.Opts.Metrics = met
	r.Opts.Service = "rasterbench"
	return r, fb
}

// RunRaster renders the scenario through both cores and returns the
// raster artifact: reference vs fixed single-thread frame quantiles,
// speedup, pixel throughput, band utilization, and the parity verdict.
func RunRaster(cfg Config) (RasterArtifact, error) {
	sc := cfg.Scenario
	if sc.Frames <= 0 || sc.Width <= 0 || sc.Height <= 0 {
		return RasterArtifact{}, fmt.Errorf("rasterbench: invalid scenario %+v", sc)
	}
	if cfg.Clock == nil {
		return RasterArtifact{}, fmt.Errorf("rasterbench: clock required")
	}
	model := genmodel.Galleon(sc.Triangles)
	cam := raster.DefaultCamera().FitToBounds(model.Bounds(), mathx.V3(0.3, 0.2, 1))
	met := telemetry.NewRegistry(cfg.Clock)

	timePass := func(r *raster.Renderer, fb *raster.Framebuffer) []time.Duration {
		samples := make([]time.Duration, 0, sc.Frames)
		for f := 0; f < sc.Frames; f++ {
			start := cfg.Clock.Now()
			fb.Clear(0, 0, 0)
			r.RenderMesh(model, mathx.Identity(), cam)
			samples = append(samples, cfg.Clock.Now().Sub(start))
		}
		return samples
	}

	// Reference core, single thread.
	refR, refFB := newRenderer(sc.Width, sc.Height, nil, 1)
	refR.UseReferenceCore(true)
	refSamples := timePass(refR, refFB)

	// Fixed-point core, single thread, counting pixels.
	fixR, fixFB := newRenderer(sc.Width, sc.Height, met, 1)
	fixSamples := timePass(fixR, fixFB)

	// Parity: the two passes' final frames must agree byte for byte.
	parity := bytes.Equal(refFB.Color, fixFB.Color)

	// Band utilization: the same scene across Workers bands.
	parR, parFB := newRenderer(sc.Width, sc.Height, nil, sc.Workers)
	parSamples := timePass(parR, parFB)

	fixedTotal := total(fixSamples)
	res := RasterResults{
		ReferenceFrame: telemetry.Summarize(refSamples),
		FixedFrame:     telemetry.Summarize(fixSamples),
		ParityOK:       parity,
		TrianglesDrawn: int64(fixR.TrianglesDrawn),
	}
	snap := met.Snapshot()
	res.PixelsFilled = snap.CounterValue("rasterbench", "raster_pixels_total", "") / int64(sc.Frames)
	if fixedTotal > 0 {
		res.PixelsPerSec = float64(res.PixelsFilled) * float64(sc.Frames) /
			(float64(fixedTotal) / float64(time.Second))
	}
	if res.FixedFrame.P50ns > 0 {
		res.Speedup = float64(res.ReferenceFrame.P50ns) / float64(res.FixedFrame.P50ns)
	}
	if parTotal := total(parSamples); parTotal > 0 && sc.Workers > 0 {
		res.BandUtilization = float64(fixedTotal) / (float64(sc.Workers) * float64(parTotal))
	}
	return RasterArtifact{
		V:        telemetry.BenchVersion,
		Kind:     telemetry.BenchKindRaster,
		Scenario: sc,
		Results:  res,
		Snapshot: snap,
	}, nil
}
