// Package rasterbench is the single-node rasterizer benchmark harness
// behind `ravebench -extra raster` and `make raster`. It measures the
// fixed-point scanline core against the float reference core on the
// galleon scene, times the full render→composite→encode pipeline, and
// packages both into the versioned BENCH_raster.json /
// BENCH_pipeline.json artifacts (telemetry.BenchArtifact envelope)
// whose checked-in copies form the repo's raster perf trajectory.
//
// The harness takes its time source as a vclock.Clock so tests can
// drive it deterministically; ravebench passes vclock.Real{}, the one
// place sanctioned to measure wall time.
package rasterbench

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/compositor"
	"repro/internal/geom/genmodel"
	"repro/internal/imgcodec"
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

// PipelineResults is BENCH_pipeline.json's summary block: the
// distributed-rendering pipeline (split scene → render halves →
// depth-composite → RLE-encode) timed end to end.
type PipelineResults struct {
	Total     telemetry.Summary `json:"total"`
	Render    telemetry.Summary `json:"render"`
	Composite telemetry.Summary `json:"composite"`
	Encode    telemetry.Summary `json:"encode"`
	// PixelsPerSec is full-image pixels through the pipeline per
	// second of total stage time.
	PixelsPerSec float64 `json:"pixels_per_sec"`
	// EncodedBytes is one encoded frame's payload size.
	EncodedBytes int64 `json:"encoded_bytes"`
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

// RunPipeline times the distributed-rendering shape end to end: the
// scene split spatially in two, each half rendered to its own
// framebuffer (one render node each in the paper's deployment),
// depth-composited, and RLE-encoded for the thin client.
func RunPipeline(cfg Config) (PipelineArtifact, error) {
	sc := cfg.Scenario
	if sc.Frames <= 0 || sc.Width <= 0 || sc.Height <= 0 {
		return PipelineArtifact{}, fmt.Errorf("rasterbench: invalid scenario %+v", sc)
	}
	if cfg.Clock == nil {
		return PipelineArtifact{}, fmt.Errorf("rasterbench: clock required")
	}
	model := genmodel.Galleon(sc.Triangles)
	cam := raster.DefaultCamera().FitToBounds(model.Bounds(), mathx.V3(0.3, 0.2, 1))
	halves := model.SplitSpatially(2)
	met := telemetry.NewRegistry(cfg.Clock)

	renderers := make([]*raster.Renderer, len(halves))
	fbs := make([]*raster.Framebuffer, len(halves))
	for i := range halves {
		renderers[i], fbs[i] = newRenderer(sc.Width, sc.Height, met, 1)
	}
	out := raster.NewFramebuffer(sc.Width, sc.Height)

	var renderS, compS, encS, totalS []time.Duration
	var encodedBytes int64
	for f := 0; f < sc.Frames; f++ {
		t0 := cfg.Clock.Now()
		for i, half := range halves {
			fbs[i].Clear(0, 0, 0)
			renderers[i].RenderMesh(half, mathx.Identity(), cam)
		}
		t1 := cfg.Clock.Now()
		out.Clear(0, 0, 0)
		for _, fb := range fbs {
			if err := compositor.DepthComposite(out, fb); err != nil {
				return PipelineArtifact{}, err
			}
		}
		t2 := cfg.Clock.Now()
		frame, err := imgcodec.Encode(imgcodec.RLE, sc.Width, sc.Height, out.Color, nil)
		if err != nil {
			return PipelineArtifact{}, err
		}
		t3 := cfg.Clock.Now()
		encodedBytes = int64(len(frame))
		renderS = append(renderS, t1.Sub(t0))
		compS = append(compS, t2.Sub(t1))
		encS = append(encS, t3.Sub(t2))
		totalS = append(totalS, t3.Sub(t0))
	}

	res := PipelineResults{
		Total:        telemetry.Summarize(totalS),
		Render:       telemetry.Summarize(renderS),
		Composite:    telemetry.Summarize(compS),
		Encode:       telemetry.Summarize(encS),
		EncodedBytes: encodedBytes,
	}
	if t := total(totalS); t > 0 {
		res.PixelsPerSec = float64(sc.Width*sc.Height) * float64(sc.Frames) /
			(float64(t) / float64(time.Second))
	}
	return PipelineArtifact{
		V:        telemetry.BenchVersion,
		Kind:     telemetry.BenchKindPipeline,
		Scenario: sc,
		Results:  res,
		Snapshot: met.Snapshot(),
	}, nil
}
