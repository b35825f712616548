package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
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
//	    Kind-specific harnesses embed it and add fields of their own
//	    (e.g. raveload's scenario/results); a reader decoding just the
//	    envelope ignores fields it does not know. Snapshot histograms
//	    have 14 fixed bounds (0, 1ms … 5s, +Inf), and latency
//	    summaries are exact quantiles over samples kept beside them.
//	    Metric.Quantile reads v2 buckets, not these.
//	2 — snapshot histograms have the log-linear layout (see
//	    bucketIndex), cut after their last non-empty bucket, and every
//	    latency summary is Metric.Summary of a histogram in the same
//	    snapshot.
const BenchVersion = 2

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
// fields). A harness's artifact embeds it and adds its own fields
// (raveload's scenario/results, the raster benchmark's), so every kind
// is written and read by the same two functions below.
type BenchArtifact struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`

	Snapshot Snapshot `json:"snapshot"`
}

// Envelope returns the artifact's envelope; an artifact that embeds
// BenchArtifact inherits it, which is what WriteBenchArtifact and
// ReadBenchArtifact take.
func (a *BenchArtifact) Envelope() *BenchArtifact { return a }

// Enveloped is any bench artifact: BenchArtifact or a struct embedding
// it.
type Enveloped interface{ Envelope() *BenchArtifact }

// check accepts a versioned envelope whose kind is one of kinds (any
// kind when kinds is empty).
func (a *BenchArtifact) check(kinds []string) error {
	if a.V < 1 || a.Kind == "" || (len(kinds) > 0 && !slices.Contains(kinds, a.Kind)) {
		return fmt.Errorf("telemetry: not a bench artifact of kind %v (v%d kind %q)", kinds, a.V, a.Kind)
	}
	return nil
}

// WriteBenchArtifact writes art as indented JSON (deterministic:
// snapshot metrics are sorted). Its envelope must be the current
// version and one of kinds.
func WriteBenchArtifact(w io.Writer, art Enveloped, kinds ...string) error {
	if v := art.Envelope().V; v != BenchVersion {
		return fmt.Errorf("telemetry: bench artifact written at v%d, want v%d", v, BenchVersion)
	}
	if err := art.Envelope().check(kinds); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(art)
}

// ReadBenchArtifact decodes a BENCH_*.json file of any schema version
// into art, rejecting a kind outside kinds (any kind when kinds is
// empty). A document without the envelope's "v" and "kind" is not a
// bench artifact.
func ReadBenchArtifact(r io.Reader, art Enveloped, kinds ...string) error {
	if err := json.NewDecoder(r).Decode(art); err != nil {
		return fmt.Errorf("telemetry: decode bench artifact: %w", err)
	}
	return art.Envelope().check(kinds)
}

// Summary is one timed class's distribution as a BENCH_*.json block,
// in nanoseconds (explicit int64 so the file diffs cleanly): the
// count, the p50 and p99 bucket upper bounds and the exact max of the
// histogram that recorded the class (Metric.Summary), so every summary
// in an artifact can be checked against the artifact's own snapshot.
type Summary struct {
	Count int64 `json:"count"`
	P50ns int64 `json:"p50_ns"`
	P99ns int64 `json:"p99_ns"`
	Maxns int64 `json:"max_ns"`
}
