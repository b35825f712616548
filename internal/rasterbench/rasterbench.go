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

// RasterResults is BENCH_raster.json's summary block.
type RasterResults struct {
	// ReferenceFrame and FixedFrame are single-threaded frame times for
	// the float reference core and the fixed-point core; each frame block
	// is its rasterbench/*_frame_ns histogram's Summary.
	ReferenceFrame telemetry.Summary `json:"reference_frame"`
	FixedFrame     telemetry.Summary `json:"fixed_frame"`
	// FreshRendererFrame is the fixed single-threaded pass again with a
	// Renderer built for every frame, the way renderservice.draw builds
	// one — the path the daemons run. The passes above reuse one.
	FreshRendererFrame telemetry.Summary `json:"fresh_renderer_frame"`
	// Speedup is reference p50 / fixed p50 (bucket bounds, each within
	// 12.5% of its median), same machine same run — the
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

// newRenderer builds a renderer on fb wired to the run's metrics registry.
func newRenderer(fb *raster.Framebuffer, met *telemetry.Registry, workers int) *raster.Renderer {
	r := raster.New(fb)
	r.Opts.Workers = workers
	r.Opts.Metrics = met
	r.Opts.Service = "rasterbench"
	return r
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

	// timeFrame times one frame into fb, drawn by the renderer frame
	// hands it (inside the timed region), and files the time in h
	// (outside it).
	timeFrame := func(h *telemetry.Histogram, fb *raster.Framebuffer, frame func() *raster.Renderer) {
		start := cfg.Clock.Now()
		fb.Clear(0, 0, 0)
		frame().RenderMesh(model, mathx.Identity(), cam)
		h.Observe(cfg.Clock.Now().Sub(start))
	}
	reusing := func(r *raster.Renderer) func() *raster.Renderer {
		return func() *raster.Renderer { return r }
	}
	newFB := func() *raster.Framebuffer { return raster.NewFramebuffer(sc.Width, sc.Height) }

	// Four passes: the reference core; the fixed-point core, counting
	// pixels; the fixed core with a Renderer per frame, counting into a
	// registry of its own so it carries the same metrics cost; and the
	// fixed core across Workers bands. The first three are single-threaded.
	refFB, fixFB, freshFB, parFB := newFB(), newFB(), newFB(), newFB()
	refR, fixR, parR := newRenderer(refFB, nil, 1), newRenderer(fixFB, met, 1), newRenderer(parFB, nil, sc.Workers)
	refR.UseReferenceCore(true)
	freshMet := telemetry.NewRegistry(cfg.Clock)
	fresh := func() *raster.Renderer { return newRenderer(freshFB, freshMet, 1) }
	// The passes take turns frame by frame, so a busy stretch of a shared
	// machine lands on every side of the ratios below.
	refH := met.Histogram("rasterbench", "reference_frame_ns", "")
	fixH := met.Histogram("rasterbench", "fixed_frame_ns", "")
	freshH := met.Histogram("rasterbench", "fresh_frame_ns", "")
	parH := met.Histogram("rasterbench", "parallel_frame_ns", "")
	for f := 0; f < sc.Frames; f++ {
		timeFrame(refH, refFB, reusing(refR))
		timeFrame(fixH, fixFB, reusing(fixR))
		timeFrame(freshH, freshFB, fresh)
		timeFrame(parH, parFB, reusing(parR))
	}

	snap := met.Snapshot()
	pass := func(name string) telemetry.Metric {
		m, _ := snap.Get("rasterbench", name, "")
		return m
	}
	fixed, par := pass("fixed_frame_ns"), pass("parallel_frame_ns")
	res := RasterResults{
		ReferenceFrame:     pass("reference_frame_ns").Summary(),
		FixedFrame:         fixed.Summary(),
		FreshRendererFrame: pass("fresh_frame_ns").Summary(),
		// Parity: the two cores' final frames must agree byte for byte.
		ParityOK:       bytes.Equal(refFB.Color, fixFB.Color),
		TrianglesDrawn: int64(fixR.TrianglesDrawn),
		PixelsFilled:   snap.CounterValue("rasterbench", "raster_pixels_total", "") / int64(sc.Frames),
	}
	if fixed.SumNanos > 0 {
		res.PixelsPerSec = float64(res.PixelsFilled) * float64(sc.Frames) /
			(float64(fixed.SumNanos) / float64(time.Second))
	}
	if res.FixedFrame.P50ns > 0 {
		res.Speedup = float64(res.ReferenceFrame.P50ns) / float64(res.FixedFrame.P50ns)
	}
	if par.SumNanos > 0 && sc.Workers > 0 {
		res.BandUtilization = float64(fixed.SumNanos) / (float64(sc.Workers) * float64(par.SumNanos))
	}
	return RasterArtifact{
		BenchArtifact: telemetry.BenchArtifact{V: telemetry.BenchVersion, Kind: telemetry.BenchKindRaster, Snapshot: snap},
		Scenario:      sc,
		Results:       res,
	}, nil
}
