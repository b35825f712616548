package rasterbench

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/telemetry"
)

// RasterArtifact is BENCH_raster.json: the shared versioned bench
// envelope plus the scenario and raster summary.
type RasterArtifact struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`

	Scenario Scenario      `json:"scenario"`
	Results  RasterResults `json:"results"`

	Snapshot telemetry.Snapshot `json:"snapshot"`
}

// rasterSiblings is the kind-specific payload merged into the envelope
// by telemetry.WriteBenchArtifact.
type rasterSiblings struct {
	Scenario Scenario      `json:"scenario"`
	Results  RasterResults `json:"results"`
}

// WriteRasterArtifact writes BENCH_raster.json through the shared
// telemetry envelope writer.
func WriteRasterArtifact(w io.Writer, art RasterArtifact) error {
	if art.V != telemetry.BenchVersion || art.Kind != telemetry.BenchKindRaster {
		return fmt.Errorf("rasterbench: artifact must be v%d kind %q",
			telemetry.BenchVersion, telemetry.BenchKindRaster)
	}
	return telemetry.WriteBenchArtifact(w, art.Kind, art.Snapshot,
		rasterSiblings{Scenario: art.Scenario, Results: art.Results})
}

// ReadRasterArtifact decodes a BENCH_raster.json file, rejecting other
// kinds.
func ReadRasterArtifact(r io.Reader) (RasterArtifact, error) {
	var art RasterArtifact
	if err := json.NewDecoder(r).Decode(&art); err != nil {
		return RasterArtifact{}, fmt.Errorf("rasterbench: decode raster artifact: %w", err)
	}
	if art.V < 1 || art.Kind != telemetry.BenchKindRaster {
		return RasterArtifact{}, fmt.Errorf("rasterbench: not a raster artifact (v%d kind %q)", art.V, art.Kind)
	}
	return art, nil
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
