package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"time"
)

// Versioned BENCH_*.json artifacts. Every benchmark harness that checks
// a machine-readable result into the repo (raveload → BENCH_scale.json,
// ravebench -extra raster → BENCH_raster.json) writes this envelope, so
// a reader can dispatch on one "v"/"kind" pair instead of sniffing
// shapes. The schema version is shared across kinds: bump it when any
// envelope field changes meaning, and keep ReadBenchArtifact decoding
// every version a checked-in artifact was written at — those artifacts
// are the perf trajectory, and a trajectory you can no longer parse is
// lost.

// BenchVersion is the current BENCH_*.json envelope schema version.
// Version history:
//
//	1 — the BenchArtifact envelope: {"v", "kind", "snapshot", ...}.
//	    Kind-specific harnesses may add sibling fields (e.g. raveload's
//	    scenario/results); the envelope ignores fields it does not know.
const BenchVersion = 1

// Bench artifact kinds.
const (
	// BenchKindScale is a raveload fleet-scale run (BENCH_scale.json).
	BenchKindScale = "scale"
	// BenchKindPartition is a raveload multi-region run with a region
	// partition injected mid-run (BENCH_partition.json). Same envelope
	// and sibling fields as scale, plus the partition event.
	BenchKindPartition = "partition"
	// BenchKindStorage is a raveload run with a sick disk injected
	// mid-run (BENCH_storage.json): one node's WAL starts failing and
	// the fleet must evacuate its sessions. Same envelope and sibling
	// fields as scale, plus the sick-disk event.
	BenchKindStorage = "storage"
	// BenchKindRaster is a ravebench single-node rasterizer run
	// (BENCH_raster.json): fixed-point core frame quantiles, pixels/sec,
	// speedup over the float reference core, and band utilization.
	BenchKindRaster = "raster"
)

// BenchArtifact is the common envelope of a BENCH_*.json file: the
// schema version, the artifact kind, and the run's telemetry snapshot
// (for counter/histogram detail beyond the kind-specific summary
// fields, which live alongside the envelope in kind-owning packages).
type BenchArtifact struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`

	Snapshot Snapshot `json:"snapshot"`
}

// WriteBenchArtifact writes a current-version envelope around snap as
// indented JSON (deterministic: snapshot metrics are sorted, object
// keys too). Optional siblings are kind-specific payloads (a harness's
// scenario/results blocks) merged into the envelope object — the shape
// raveload pioneered, available to any harness without each one
// re-implementing the envelope. A sibling key colliding with another
// sibling's (or the envelope's) is an error, not a silent overwrite.
func WriteBenchArtifact(w io.Writer, kind string, snap Snapshot, siblings ...any) error {
	if kind == "" {
		return fmt.Errorf("telemetry: bench artifact kind required")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if len(siblings) == 0 {
		return enc.Encode(BenchArtifact{V: BenchVersion, Kind: kind, Snapshot: snap})
	}
	obj := map[string]json.RawMessage{}
	env, err := json.Marshal(BenchArtifact{V: BenchVersion, Kind: kind, Snapshot: snap})
	if err != nil {
		return err
	}
	if err := json.Unmarshal(env, &obj); err != nil {
		return err
	}
	for _, s := range siblings {
		raw, err := json.Marshal(s)
		if err != nil {
			return err
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			return fmt.Errorf("telemetry: bench artifact sibling must be a JSON object: %w", err)
		}
		for k, v := range fields {
			if _, dup := obj[k]; dup {
				return fmt.Errorf("telemetry: bench artifact sibling key %q collides", k)
			}
			obj[k] = v
		}
	}
	return enc.Encode(obj)
}

// ReadBenchArtifact decodes a BENCH_*.json envelope of any schema
// version. A document without the envelope's "v" and "kind" is not a
// bench artifact.
func ReadBenchArtifact(r io.Reader) (BenchArtifact, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return BenchArtifact{}, err
	}
	var art BenchArtifact
	if err := json.Unmarshal(data, &art); err != nil {
		return BenchArtifact{}, fmt.Errorf("telemetry: decode bench artifact: %w", err)
	}
	if art.V < 1 || art.Kind == "" {
		return BenchArtifact{}, fmt.Errorf("telemetry: not a bench artifact (v=%d kind=%q)", art.V, art.Kind)
	}
	return art, nil
}

// Summary is one timed class's distribution as a BENCH_*.json block:
// exact quantiles over every sample, in nanoseconds (explicit int64 so
// the file diffs cleanly). The histograms' ms-scale buckets are too
// coarse for sub-millisecond frames, and a run's sample count is small
// enough to keep them all.
type Summary struct {
	Count int64 `json:"count"`
	P50ns int64 `json:"p50_ns"`
	P99ns int64 `json:"p99_ns"`
	Maxns int64 `json:"max_ns"`
}

// Summarize sorts a copy of samples and reads exact quantiles.
func Summarize(samples []time.Duration) Summary {
	n := len(samples)
	if n == 0 {
		return Summary{}
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	at := func(q float64) int64 {
		return int64(sorted[int(q*float64(n-1))])
	}
	return Summary{
		Count: int64(n),
		P50ns: at(0.50),
		P99ns: at(0.99),
		Maxns: int64(sorted[n-1]),
	}
}
