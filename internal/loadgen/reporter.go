package loadgen

import (
	"errors"
	"sync"
	"time"

	"repro/internal/gateway"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// maxErrorSamples bounds how many error strings the artifact keeps.
const maxErrorSamples = 5

// Reporter aggregates request outcomes. Requesters call record
// concurrently; aggregation is a mutex over plain counters — no
// channels, no goroutines, nothing to leak or overflow.
type Reporter struct {
	mu         sync.Mutex
	issued     int64
	ok         int64
	errs       int64
	declined   map[string]int64
	errSamples []string

	killNode  string
	killAtNs  int64
	sickNode  string
	sickAtNs  int64
	virtualNs int64

	// Partition-era accounting: bootstrap-byte counters sampled when
	// the cut lands and again when it heals (or the run ends), so the
	// deltas cover exactly the window the partition was up.
	partitionRegion          string
	partitionAtNs, healAtNs  int64
	crossAtCut, crossAtHeal  int64
	victimAtCut, victimAtEnd int64
}

// NewReporter creates an empty reporter.
func NewReporter() *Reporter {
	return &Reporter{declined: map[string]int64{}}
}

// record files one request outcome.
func (r *Reporter) record(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.issued++
	switch {
	case err == nil:
		r.ok++
	default:
		var dec *transport.Decline
		if errors.As(err, &dec) {
			r.declined[dec.Reason]++
		} else {
			r.errs++
			if len(r.errSamples) < maxErrorSamples {
				r.errSamples = append(r.errSamples, err.Error())
			}
		}
	}
}

// noteKill records the injected fault.
func (r *Reporter) noteKill(node string, at time.Duration) {
	r.mu.Lock()
	r.killNode = node
	r.killAtNs = int64(at)
	r.mu.Unlock()
}

// noteSickDisk records the injected storage fault.
func (r *Reporter) noteSickDisk(node string, at time.Duration) {
	r.mu.Lock()
	r.sickNode = node
	r.sickAtNs = int64(at)
	r.mu.Unlock()
}

// notePartition records the injected region cut and the byte counters
// at cut time.
func (r *Reporter) notePartition(region string, at time.Duration, cross, victim int64) {
	r.mu.Lock()
	r.partitionRegion = region
	r.partitionAtNs = int64(at)
	r.crossAtCut, r.victimAtCut = cross, victim
	r.mu.Unlock()
}

// noteHeal closes the partition accounting window: at is the heal's
// virtual offset (zero when the run ended still cut), cross/victim the
// byte counters just before reconnecting.
func (r *Reporter) noteHeal(at time.Duration, cross, victim int64) {
	r.mu.Lock()
	r.healAtNs = int64(at)
	r.crossAtHeal, r.victimAtEnd = cross, victim
	r.mu.Unlock()
}

// setVirtualDuration records the run's virtual length.
func (r *Reporter) setVirtualDuration(d time.Duration) {
	r.mu.Lock()
	r.virtualNs = int64(d)
	r.mu.Unlock()
}

// Summarize folds the reporter's counters and the fleet's telemetry
// snapshot into the artifact's results block; the latency blocks are
// the snapshot's gw/dispatch_latency_ns histograms.
func (r *Reporter) Summarize(snap telemetry.Snapshot) Results {
	r.mu.Lock()
	declined := make(map[string]int64, len(r.declined))
	for k, v := range r.declined {
		declined[k] = v
	}
	res := Results{
		Issued:            r.issued,
		OK:                r.ok,
		Declined:          declined,
		Errors:            r.errs,
		ErrorSamples:      append([]string(nil), r.errSamples...),
		VirtualDurationNs: r.virtualNs,
	}
	if r.partitionRegion != "" {
		res.PartitionInjected = true
		res.PartitionCrossBootstrapBytes = r.crossAtHeal - r.crossAtCut
		res.PartitionVictimBootstrapBytes = r.victimAtEnd - r.victimAtCut
	}
	r.mu.Unlock()
	if res.VirtualDurationNs > 0 {
		res.ThroughputRPS = float64(res.OK) / (float64(res.VirtualDurationNs) / float64(time.Second))
	}
	mutate, _ := snap.Get("gw", "dispatch_latency_ns", string(gateway.KindMutate))
	frame, _ := snap.Get("gw", "dispatch_latency_ns", string(gateway.KindFrame))
	res.Mutate, res.Frame = mutate.Summary(), frame.Summary()
	res.SessionsRebalanced = snap.CounterValue("gw", "sessions_rebalanced_total", "")
	res.Promotions = snap.CounterValue("gw", "promotions_total", "")
	res.DispatchRetries = snap.CounterValue("gw", "dispatch_retries_total", "")
	res.SessionsLost = snap.CounterValue("gw", "sessions_lost_total", "")
	res.SessionsEvacuated = snap.CounterValue("gw", "sessions_evacuated_total", "")
	res.RebalanceErrors = snap.CounterValue("gw", "rebalance_errors_total", "")
	return res
}

// KillEvent records the mid-run fault injection.
type KillEvent struct {
	// Node is the killed data service.
	Node string `json:"node"`
	// AtNs is the kill's virtual offset into the run.
	AtNs int64 `json:"at_ns"`
}

// SickDiskEvent records the mid-run storage fault injection.
type SickDiskEvent struct {
	// Node is the data service whose disk was poisoned.
	Node string `json:"node"`
	// AtNs is the poisoning's virtual offset into the run.
	AtNs int64 `json:"at_ns"`
}

// PartitionEvent records the mid-run region cut.
type PartitionEvent struct {
	// Region is the cut region.
	Region string `json:"region"`
	// AtNs is the cut's virtual offset into the run.
	AtNs int64 `json:"at_ns"`
	// HealedAtNs is the heal's virtual offset (0 = the run ended cut).
	HealedAtNs int64 `json:"healed_at_ns,omitempty"`
	// CrossBootstrapBytes is fleet-wide cross-region bootstrap traffic
	// during the cut; a locality-correct fleet moves zero.
	CrossBootstrapBytes int64 `json:"cross_bootstrap_bytes"`
	// VictimBootstrapBytes is bootstrap traffic served by cut-region
	// primaries during the cut; nobody on the gateway side can reach
	// them, so it too must be zero.
	VictimBootstrapBytes int64 `json:"victim_bootstrap_bytes"`
}

// Artifact is BENCH_scale.json, BENCH_partition.json or
// BENCH_storage.json: the shared versioned bench envelope (v, kind,
// snapshot) plus the scenario that produced the run, the faults
// injected, and the summary results. telemetry.WriteBenchArtifact and
// ReadBenchArtifact write and read it, given ArtifactKinds.
type Artifact struct {
	telemetry.BenchArtifact

	Scenario  Scenario        `json:"scenario"`
	Kill      *KillEvent      `json:"kill,omitempty"`
	SickDisk  *SickDiskEvent  `json:"sick_disk,omitempty"`
	Partition *PartitionEvent `json:"partition,omitempty"`
	Results   Results         `json:"results"`
}

// ArtifactKinds are the bench artifact kinds a raveload run writes.
var ArtifactKinds = []string{telemetry.BenchKindScale, telemetry.BenchKindPartition, telemetry.BenchKindStorage}

// Artifact assembles the versioned artifact for a completed run. Runs
// that injected a region partition are kind "partition", runs that
// poisoned a disk are kind "storage"; plain (and node-kill) runs are
// kind "scale".
func (f *Fleet) Artifact(rep *Reporter) Artifact {
	snap := f.Metrics.Snapshot()
	art := Artifact{
		BenchArtifact: telemetry.BenchArtifact{
			V:        telemetry.BenchVersion,
			Kind:     telemetry.BenchKindScale,
			Snapshot: snap,
		},
		Scenario: f.Scenario,
		Results:  rep.Summarize(snap),
	}
	rep.mu.Lock()
	killNode, killAtNs := rep.killNode, rep.killAtNs
	sickNode, sickAtNs := rep.sickNode, rep.sickAtNs
	partitionRegion := rep.partitionRegion
	partitionAtNs, healAtNs := rep.partitionAtNs, rep.healAtNs
	rep.mu.Unlock()
	if killNode != "" {
		art.Kill = &KillEvent{Node: killNode, AtNs: killAtNs}
	}
	if sickNode != "" {
		art.Kind = telemetry.BenchKindStorage
		art.SickDisk = &SickDiskEvent{Node: sickNode, AtNs: sickAtNs}
		art.Results.SickDiskInjected = true
		art.Results.SickNodeSessions, art.Results.ReplicationDeficit = f.storageOutcome(sickNode)
	}
	if partitionRegion != "" {
		art.Kind = telemetry.BenchKindPartition
		art.Partition = &PartitionEvent{
			Region:               partitionRegion,
			AtNs:                 partitionAtNs,
			HealedAtNs:           healAtNs,
			CrossBootstrapBytes:  art.Results.PartitionCrossBootstrapBytes,
			VictimBootstrapBytes: art.Results.PartitionVictimBootstrapBytes,
		}
	}
	return art
}
