// Package loadgen is the raveload fleet-scale load harness: an
// open-loop generator driving a thousand-plus concurrent sessions
// through the gateway tier on the virtual clock, with node kills
// injected mid-run. All pacing and every latency sample is virtual
// time, and the clock moves only when every requester and node is
// blocked on it, so the modeled costs are the only thing a latency
// reads and a run replays the same request schedule every time; the
// output is a versioned BENCH_scale.json throughput/latency artifact.
//
// The harness splits four ways: the loader builds the fleet and opens
// the session population, requesters drive the per-session open-loop
// schedules, the reporter aggregates outcomes and writes the artifact,
// and stats (this file) holds the results block and its acceptance
// check.
package loadgen

import (
	"fmt"
	"time"

	"repro/internal/gateway"
	"repro/internal/telemetry"
)

// Results is the artifact's summary block: what the run offered, what
// came back, and how fast.
type Results struct {
	// Issued counts every request the generators offered.
	Issued int64 `json:"issued"`
	// OK counts successful dispatches.
	OK int64 `json:"ok"`
	// Declined counts typed gateway declines by reason. Declines are
	// backpressure, not failures.
	Declined map[string]int64 `json:"declined,omitempty"`
	// Errors counts hard failures — client-visible errors. A healthy
	// run, including one with a mid-run node kill, has zero.
	Errors int64 `json:"errors"`
	// ErrorSamples holds the first few error strings for diagnosis.
	ErrorSamples []string `json:"error_samples,omitempty"`

	// VirtualDurationNs is the run length in virtual time.
	VirtualDurationNs int64 `json:"virtual_duration_ns"`
	// ThroughputRPS is OK requests per virtual second.
	ThroughputRPS float64 `json:"throughput_rps"`

	// Mutate and Frame are per-class latency distributions of the
	// successful dispatches (virtual time, gateway admission to
	// completion, retries included), read from the gateway's
	// gw/dispatch_latency_ns{mutate|frame} histograms.
	Mutate telemetry.Summary `json:"mutate"`
	Frame  telemetry.Summary `json:"frame"`

	// Fleet-health counters lifted from the telemetry snapshot.
	SessionsRebalanced int64 `json:"sessions_rebalanced"`
	Promotions         int64 `json:"promotions"`
	DispatchRetries    int64 `json:"dispatch_retries"`
	SessionsLost       int64 `json:"sessions_lost"`
	SessionsEvacuated  int64 `json:"sessions_evacuated,omitempty"`
	// RebalanceErrors counts moves the gateway's own ring asked for that
	// then failed or were refused; a consistent gateway has zero.
	RebalanceErrors int64 `json:"rebalance_errors"`

	// SickDiskInjected records that the run poisoned a node's disk
	// mid-run; the two end-of-run gauges below must both be zero.
	SickDiskInjected bool `json:"sick_disk_injected,omitempty"`
	// SickNodeSessions is how many sessions the sick node still owned
	// at end of run (0 = fully evacuated).
	SickNodeSessions int64 `json:"sick_node_sessions,omitempty"`
	// ReplicationDeficit is how many sessions ended the run below the
	// achievable replication factor on healthy nodes (0 = factor N
	// restored after the evacuation).
	ReplicationDeficit int64 `json:"replication_deficit,omitempty"`

	// PartitionInjected records that the run cut a region mid-run; the
	// two byte deltas below cover exactly the window the cut was up.
	PartitionInjected bool `json:"partition_injected,omitempty"`
	// PartitionCrossBootstrapBytes is fleet-wide cross-region bootstrap
	// traffic while the partition was up.
	PartitionCrossBootstrapBytes int64 `json:"partition_cross_bootstrap_bytes,omitempty"`
	// PartitionVictimBootstrapBytes is bootstrap traffic served by the
	// cut region's primaries while the partition was up.
	PartitionVictimBootstrapBytes int64 `json:"partition_victim_bootstrap_bytes,omitempty"`
}

// declinedTotal sums declines across reasons.
func (r Results) declinedTotal() int64 {
	var n int64
	for _, c := range r.Declined {
		n += c
	}
	return n
}

// Check verifies the run's acceptance invariants against the scenario sc
// that produced it, as BuildFleet filled it in. The generators issued
// every request the seeded schedule holds, the run ended within one
// interval of its duration, and each class's p99 is within twice its
// modeled cost: a run whose clock outran its requesters fails these.
// Every issued request is accounted for exactly once, no client-visible
// error leaked through the gateway's retry loop, no session state was
// lost, no move the gateway's own ring asked for failed, and some request
// succeeded.
func (r Results) Check(sc Scenario) error {
	if want := sc.scheduled(); r.Issued != want {
		return fmt.Errorf("loadgen: issued %d of the %d requests the schedule holds", r.Issued, want)
	}
	if limit := sc.Duration + sc.Interval; time.Duration(r.VirtualDurationNs) > limit {
		return fmt.Errorf("loadgen: run took %v of virtual time; a %v run at a %v interval ends by %v",
			time.Duration(r.VirtualDurationNs), sc.Duration, sc.Interval, limit)
	}
	if mutate, frame := time.Duration(r.Mutate.P99ns), time.Duration(r.Frame.P99ns); mutate > 2*gateway.DefaultOpCost || frame > 2*gateway.DefaultRenderCost {
		return fmt.Errorf("loadgen: p99 mutate %v / frame %v; the modeled costs are %v / %v and a p99 may be twice that",
			mutate, frame, gateway.DefaultOpCost, gateway.DefaultRenderCost)
	}
	if got := r.OK + r.declinedTotal() + r.Errors; got != r.Issued {
		return fmt.Errorf("loadgen: conservation violated: ok %d + declined %d + errors %d != issued %d",
			r.OK, r.declinedTotal(), r.Errors, r.Issued)
	}
	if r.Errors != 0 {
		return fmt.Errorf("loadgen: %d client-visible errors (first: %v)", r.Errors, r.ErrorSamples)
	}
	if r.SessionsLost != 0 {
		return fmt.Errorf("loadgen: %d sessions lost state in failover", r.SessionsLost)
	}
	if r.RebalanceErrors != 0 {
		return fmt.Errorf("loadgen: %d session moves the gateway's ring asked for failed (rebalance_errors_total)", r.RebalanceErrors)
	}
	if r.OK == 0 {
		return fmt.Errorf("loadgen: no request succeeded")
	}
	if r.SickDiskInjected {
		if r.SessionsEvacuated == 0 {
			return fmt.Errorf("loadgen: disk went sick but no session was evacuated")
		}
		if r.SickNodeSessions != 0 {
			return fmt.Errorf("loadgen: sick node still owns %d sessions at end of run; want full evacuation",
				r.SickNodeSessions)
		}
		if r.ReplicationDeficit != 0 {
			return fmt.Errorf("loadgen: %d sessions below replication factor after evacuation; want factor restored",
				r.ReplicationDeficit)
		}
	}
	if r.PartitionInjected {
		if r.PartitionCrossBootstrapBytes != 0 {
			return fmt.Errorf("loadgen: %d bootstrap bytes crossed regions during the partition; want 0",
				r.PartitionCrossBootstrapBytes)
		}
		if r.PartitionVictimBootstrapBytes != 0 {
			return fmt.Errorf("loadgen: cut-region primaries served %d bootstrap bytes during the partition; want 0",
				r.PartitionVictimBootstrapBytes)
		}
	}
	return nil
}
