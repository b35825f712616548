package loadgen

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestRunSurvivesNodeKill: the reduced CI scenario — a fleet under
// open-loop load loses its most-loaded node mid-run. The acceptance
// invariants: every request accounted for, zero client-visible errors,
// zero sessions lost, failovers actually happened (promotions > 0).
func TestRunSurvivesNodeKill(t *testing.T) {
	sc := Scenario{
		Nodes:      4,
		Sessions:   60,
		Tenants:    4,
		Interval:   250 * time.Millisecond,
		Duration:   3 * time.Second,
		FrameEvery: 4,
		Seed:       7,
		KillNodeAt: 1500 * time.Millisecond,
	}
	fleet, err := BuildFleet(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReporter()
	fleet.Run(context.Background(), rep)
	res := rep.Summarize(fleet.Metrics.Snapshot())
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Promotions == 0 {
		t.Error("node kill caused no promotions; failover path untested")
	}
	if res.Mutate.Count == 0 || res.Frame.Count == 0 {
		t.Errorf("class coverage: mutate %d frame %d", res.Mutate.Count, res.Frame.Count)
	}
	if res.Mutate.P50ns <= 0 || res.Frame.P99ns < res.Frame.P50ns {
		t.Errorf("latency summary malformed: %+v %+v", res.Mutate, res.Frame)
	}

	art := fleet.Artifact(rep)
	if art.Kill == nil || art.Kill.Node == "" {
		t.Fatalf("artifact missing kill event: %+v", art.Kill)
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, art); err != nil {
		t.Fatal(err)
	}
	// Round-trips through the scale reader...
	got, err := ReadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Results.Issued != res.Issued || got.Scenario.Sessions != sc.Sessions {
		t.Errorf("artifact round trip: %+v", got.Results)
	}
	// ...and through the shared versioned bench envelope, which sees
	// the same v/kind/snapshot and ignores the scale-specific fields.
	env, err := telemetry.ReadBenchArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if env.V != telemetry.BenchVersion || env.Kind != telemetry.BenchKindScale {
		t.Errorf("bench envelope: v%d kind %q", env.V, env.Kind)
	}
	if env.Snapshot.CounterValue("gw", "promotions_total", "") != res.Promotions {
		t.Error("snapshot in envelope does not match results")
	}
}

// TestRunSurvivesRegionPartition: the reduced partition scenario — a
// two-region fleet loses its second region mid-run and heals before
// the end. Acceptance: the usual conservation/zero-error/zero-lost
// invariants plus the locality ones — failovers promoted surviving
// replicas, and not one bootstrap byte crossed the partition while it
// was up. The artifact comes out kind "partition" and round-trips
// through both readers.
func TestRunSurvivesRegionPartition(t *testing.T) {
	sc := Scenario{
		Nodes:       4,
		Sessions:    40,
		Tenants:     4,
		Interval:    250 * time.Millisecond,
		Duration:    6 * time.Second,
		FrameEvery:  4,
		Seed:        7,
		Regions:     []string{"eu", "us"},
		Replicas:    2,
		PartitionAt: 2 * time.Second,
		HealAt:      4 * time.Second,
	}
	fleet, err := BuildFleet(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReporter()
	fleet.Run(context.Background(), rep)
	res := rep.Summarize(fleet.Metrics.Snapshot())
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if !res.PartitionInjected {
		t.Fatal("partition never injected")
	}
	if res.Promotions == 0 {
		t.Error("region cut caused no promotions; cut-region sessions were not failed over")
	}
	if fleet.Topology.Partitioned() {
		t.Error("topology still partitioned after heal")
	}

	art := fleet.Artifact(rep)
	if art.Kind != telemetry.BenchKindPartition {
		t.Fatalf("artifact kind %q, want partition", art.Kind)
	}
	p := art.Partition
	if p == nil || p.Region != "us" || p.AtNs != int64(sc.PartitionAt) || p.HealedAtNs != int64(sc.HealAt) {
		t.Fatalf("partition event %+v", p)
	}
	if p.CrossBootstrapBytes != 0 || p.VictimBootstrapBytes != 0 {
		t.Errorf("bootstrap bytes crossed the partition: cross %d victim %d", p.CrossBootstrapBytes, p.VictimBootstrapBytes)
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, art); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Partition == nil || got.Partition.Region != "us" {
		t.Errorf("artifact round trip lost the partition event: %+v", got.Partition)
	}
	env, err := telemetry.ReadBenchArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != telemetry.BenchKindPartition {
		t.Errorf("bench envelope kind %q", env.Kind)
	}
}

// TestRunSurvivesSickDisk: the reduced storage-fault scenario — the
// most-loaded node's disk is poisoned mid-run while the open-loop load
// keeps coming. Acceptance: conservation, zero client-visible errors,
// zero sessions lost, the sick node fully evacuated, and the
// replication factor restored on healthy disks. The artifact comes out
// kind "storage" and round-trips through both readers.
func TestRunSurvivesSickDisk(t *testing.T) {
	sc := Scenario{
		Nodes:      4,
		Sessions:   60,
		Tenants:    4,
		Interval:   250 * time.Millisecond,
		Duration:   3 * time.Second,
		FrameEvery: 4,
		Seed:       7,
		Replicas:   2,
		SickDiskAt: 1500 * time.Millisecond,
	}
	fleet, err := BuildFleet(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReporter()
	fleet.Run(context.Background(), rep)
	art := fleet.Artifact(rep)
	res := art.Results
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if !res.SickDiskInjected {
		t.Fatal("sick disk never injected")
	}
	if res.SessionsEvacuated == 0 {
		t.Error("no sessions evacuated; storage failover path untested")
	}
	if res.DispatchRetries == 0 {
		t.Error("no dispatch retries; the sick disk was never tripped on")
	}

	if art.Kind != telemetry.BenchKindStorage {
		t.Fatalf("artifact kind %q, want storage", art.Kind)
	}
	if art.SickDisk == nil || art.SickDisk.Node == "" || art.SickDisk.AtNs != int64(sc.SickDiskAt) {
		t.Fatalf("sick-disk event %+v", art.SickDisk)
	}
	sick := art.SickDisk.Node
	for _, n := range fleet.Nodes {
		if n.Name() == sick && !n.StorageDegraded() {
			t.Errorf("sick node %s never latched storage-degraded", sick)
		}
	}
	for s, owner := range fleet.Gateway.Placements() {
		if owner == sick {
			t.Errorf("session %s still owned by sick node %s", s, sick)
		}
	}
	var buf bytes.Buffer
	if err := WriteArtifact(&buf, art); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.SickDisk == nil || got.SickDisk.Node != sick || !got.Results.SickDiskInjected {
		t.Errorf("artifact round trip lost the sick-disk event: %+v", got.SickDisk)
	}
	env, err := telemetry.ReadBenchArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != telemetry.BenchKindStorage {
		t.Errorf("bench envelope kind %q", env.Kind)
	}
}

// TestRunSurvivesSickDiskThenPartition: the faults stacked — a disk goes
// sick, then a region is cut, then it heals. The two topology events
// must not undo the evacuation: a sick node back on the ring makes
// every later rebalance ask for moves the placement rules refuse, which
// Check reads off rebalance_errors_total.
func TestRunSurvivesSickDiskThenPartition(t *testing.T) {
	fleet, err := BuildFleet(Scenario{
		Nodes:       4,
		Sessions:    40,
		Tenants:     4,
		Interval:    250 * time.Millisecond,
		Duration:    6 * time.Second,
		FrameEvery:  4,
		Seed:        7,
		Regions:     []string{"eu", "us"},
		Replicas:    2,
		SickDiskAt:  1 * time.Second,
		PartitionAt: 2 * time.Second,
		HealAt:      4 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReporter()
	fleet.Run(context.Background(), rep)
	art := fleet.Artifact(rep)
	res := art.Results
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if !res.SickDiskInjected || !res.PartitionInjected || res.SessionsEvacuated == 0 || res.Promotions == 0 {
		t.Errorf("a fault was not exercised: %+v", res)
	}
	// Moving a session home after the heal lands it on a copy that still
	// holds the journal of its pre-partition term; that is not a disk
	// fault, and only the poisoned node may end the run degraded.
	for _, n := range fleet.Nodes {
		if n.StorageDegraded() != (n.Name() == art.SickDisk.Node) {
			t.Errorf("node %s degraded=%v; the sick disk was on %s", n.Name(), n.StorageDegraded(), art.SickDisk.Node)
		}
	}
}

// TestScenarioValidate: impossible scenario combinations are rejected
// up front (raveload surfaces these as flag-validation errors).
func TestScenarioValidate(t *testing.T) {
	bad := []Scenario{
		{PartitionAt: time.Second},
		{PartitionAt: time.Second, Regions: []string{"eu"}},
		{HealAt: time.Second},
		{PartitionAt: 2 * time.Second, HealAt: time.Second, Regions: []string{"eu", "us"}},
		{Replicas: -1},
		{Regions: []string{"eu", ""}},
		{SickDiskAt: time.Second, Nodes: 1},
		{SickDiskAt: time.Second, KillNodeAt: time.Second},
	}
	for i, sc := range bad {
		if _, err := BuildFleet(sc); err == nil {
			t.Errorf("case %d: scenario %+v accepted", i, sc)
		}
	}
	if err := (Scenario{Regions: []string{"eu", "us"}, Replicas: 2, PartitionAt: time.Second, HealAt: 2 * time.Second}).Validate(); err != nil {
		t.Errorf("valid partition scenario rejected: %v", err)
	}
}

// TestRunWithoutFault: a healthy run has zero failovers and clean
// conservation.
func TestRunWithoutFault(t *testing.T) {
	sc := Scenario{
		Nodes:    3,
		Sessions: 30,
		Tenants:  3,
		Interval: 200 * time.Millisecond,
		Duration: 2 * time.Second,
		Seed:     11,
	}
	fleet, err := BuildFleet(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReporter()
	fleet.Run(context.Background(), rep)
	res := rep.Summarize(fleet.Metrics.Snapshot())
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Promotions != 0 || res.SessionsRebalanced != 0 {
		t.Errorf("healthy run rebalanced: promotions %d moved %d", res.Promotions, res.SessionsRebalanced)
	}
	if res.ThroughputRPS <= 0 {
		t.Errorf("throughput %f", res.ThroughputRPS)
	}
}

// TestReadArtifactRejectsWrongKind: a raster-kind bench file is not a
// scale artifact.
func TestReadArtifactRejectsWrongKind(t *testing.T) {
	if _, err := ReadArtifact(bytes.NewReader([]byte(`{"v":1,"kind":"raster","snapshot":{"taken_nanos":1}}`))); err == nil {
		t.Error("raster artifact accepted as scale artifact")
	}
	if _, err := ReadArtifact(bytes.NewReader([]byte(`{"taken_nanos":1}`))); err == nil {
		t.Error("bare snapshot accepted as scale artifact")
	}
}
