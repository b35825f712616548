package rasterbench

import (
	"fmt"

	"repro/internal/telemetry"
)

// RasterArtifact is BENCH_raster.json: the shared versioned bench
// envelope plus the scenario and raster summary, written and read by
// telemetry.WriteBenchArtifact and ReadBenchArtifact with kind
// telemetry.BenchKindRaster.
type RasterArtifact struct {
	telemetry.BenchArtifact

	Scenario Scenario      `json:"scenario"`
	Results  RasterResults `json:"results"`
}

// CheckRaster evaluates a fresh run against the regression invariants
// and the checked-in baseline (nil = no baseline yet). Absolute wall
// times are machine-dependent, so the hard gates are machine-relative:
// parity must hold; the fixed core must not lose to the reference core
// run in the same process (median ratio, 0.9 floor for scheduler noise
// — the two cores share the vertex pipeline, so this in-run ratio
// isolates the span core; the larger speedup over the pre-refactor
// renderer is recorded in EXPERIMENTS.md, not re-measured here); and
// throughput must not collapse by more than 8x against the baseline
// file (an 8x cliff is a lost optimization, not noise — CI machines
// vary, but not that much).
func CheckRaster(cur RasterArtifact, base *RasterArtifact) []string {
	var violations []string
	if !cur.Results.ParityOK {
		violations = append(violations,
			"parity: fixed-point and reference cores rendered different frames")
	}
	if cur.Results.Speedup < 0.9 {
		violations = append(violations, fmt.Sprintf(
			"speedup: fixed core %.2fx vs reference, want >= 0.9x", cur.Results.Speedup))
	}
	if cur.Results.PixelsFilled <= 0 {
		violations = append(violations, "pixels: fixed pass filled no pixels")
	}
	if base != nil && base.Results.PixelsPerSec > 0 {
		if floor := base.Results.PixelsPerSec / 8; cur.Results.PixelsPerSec < floor {
			violations = append(violations, fmt.Sprintf(
				"throughput: %.3g pixels/sec < %.3g (baseline %.3g / 8)",
				cur.Results.PixelsPerSec, floor, base.Results.PixelsPerSec))
		}
	}
	return violations
}
