package loadgen

import (
	"fmt"
	"time"

	"repro/internal/dataservice/wal"
	"repro/internal/gateway"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/uddi"
	"repro/internal/vclock"
)

// Scenario defaults (the reduced CI scenario overrides most of them;
// the checked-in BENCH_scale.json run overrides Sessions and Nodes up).
const (
	DefaultNodes       = 4
	DefaultSessions    = 100
	DefaultTenants     = 4
	DefaultInterval    = 250 * time.Millisecond
	DefaultDuration    = 10 * time.Second
	DefaultFrameEvery  = 4
	DefaultQueueDepth  = 256
	DefaultRenderSlots = gateway.DefaultRenderSlots
)

// Scenario is one raveload run, fully specified: the same scenario on
// the same seed issues the same request schedule.
type Scenario struct {
	// Nodes is the data-service fleet size.
	Nodes int `json:"nodes"`
	// Sessions is the concurrent session population.
	Sessions int `json:"sessions"`
	// Tenants is how many fair-share tenants the sessions are spread
	// over (round-robin).
	Tenants int `json:"tenants"`
	// Interval is each session's request period (open-loop: ticks are
	// scheduled on the absolute virtual timeline, not after the
	// previous response).
	Interval time.Duration `json:"interval_ns"`
	// Duration is the run length in virtual time.
	Duration time.Duration `json:"duration_ns"`
	// FrameEvery makes every k-th request a frame (the rest are scene
	// mutations); 4 means a 25% render mix.
	FrameEvery int `json:"frame_every"`
	// Seed drives start-phase jitter (and nothing else — the schedule
	// is otherwise deterministic).
	Seed int64 `json:"seed"`
	// QueueDepth is the gateway admission depth.
	QueueDepth int `json:"queue_depth"`
	// RenderSlots is per-node render capacity.
	RenderSlots int `json:"render_slots"`
	// KillNodeAt, when positive, kills one data-service node at that
	// virtual offset into the run — without telling the gateway, which
	// must discover the death from failed dispatches.
	KillNodeAt time.Duration `json:"kill_node_at_ns,omitempty"`
	// SickDiskAt, when positive, poisons the most-loaded node's disk at
	// that virtual offset: every WAL commit on the node starts failing.
	// The node stays alive — the gateway must notice the storage fault
	// from failed commits, evacuate the node's sessions onto healthy
	// replicas, and restore the replication factor, all without a
	// single client-visible error. Implies journal-backed nodes.
	SickDiskAt time.Duration `json:"sick_disk_at_ns,omitempty"`

	// Regions, when non-empty, spreads the fleet across named regions
	// round-robin on a shared topology; the gateway sits in the first.
	// Empty keeps the flat single-site fleet of earlier PRs.
	Regions []string `json:"regions,omitempty"`
	// Replicas is the per-session replication factor (0 = 1, the single
	// ring-successor standby).
	Replicas int `json:"replicas,omitempty"`
	// PartitionAt, when positive, cuts the last named region off from
	// the rest of the topology at that virtual offset: the gateway side
	// keeps serving, the cut side goes dark until HealAt.
	PartitionAt time.Duration `json:"partition_at_ns,omitempty"`
	// HealAt, when positive, heals the partition at that virtual offset
	// (must be after PartitionAt; zero leaves the run partitioned to
	// the end).
	HealAt time.Duration `json:"heal_at_ns,omitempty"`
}

// Validate rejects scenario combinations that cannot run: a partition
// needs at least two regions to cut between, and a heal needs a
// partition to heal. Flag parsing in raveload surfaces these as usage
// errors instead of mid-run panics.
func (sc Scenario) Validate() error {
	if sc.PartitionAt > 0 && len(sc.Regions) < 2 {
		return fmt.Errorf("loadgen: -partition-at needs at least two regions (got %d)", len(sc.Regions))
	}
	if sc.HealAt > 0 && sc.PartitionAt <= 0 {
		return fmt.Errorf("loadgen: -heal-at without -partition-at: nothing to heal")
	}
	if sc.HealAt > 0 && sc.HealAt <= sc.PartitionAt {
		return fmt.Errorf("loadgen: -heal-at %v must come after -partition-at %v", sc.HealAt, sc.PartitionAt)
	}
	if sc.Replicas < 0 {
		return fmt.Errorf("loadgen: negative replication factor %d", sc.Replicas)
	}
	if sc.SickDiskAt > 0 && sc.Nodes > 0 && sc.Nodes < 2 {
		return fmt.Errorf("loadgen: -sick-disk-at needs at least two nodes to evacuate onto")
	}
	if sc.SickDiskAt > 0 && sc.KillNodeAt > 0 {
		return fmt.Errorf("loadgen: -sick-disk-at and -kill-node-at are separate fault scenarios; pick one")
	}
	for _, r := range sc.Regions {
		if r == "" {
			return fmt.Errorf("loadgen: empty region name in %v", sc.Regions)
		}
	}
	return nil
}

// victimRegion is the region a partition cuts: the last named one, so
// the gateway (which sits in the first) always stays on the majority
// side and must serve the cut region's sessions from surviving
// replicas.
func (sc Scenario) victimRegion() string {
	if len(sc.Regions) == 0 {
		return ""
	}
	return sc.Regions[len(sc.Regions)-1]
}

// nodeRegion assigns node i its round-robin region ("" on a flat fleet).
func (sc Scenario) nodeRegion(i int) string {
	if len(sc.Regions) == 0 {
		return ""
	}
	return sc.Regions[i%len(sc.Regions)]
}

// withDefaults fills zero fields.
func (sc Scenario) withDefaults() Scenario {
	orDefault(&sc.Nodes, DefaultNodes)
	orDefault(&sc.Sessions, DefaultSessions)
	orDefault(&sc.Tenants, DefaultTenants)
	orDefault(&sc.Interval, DefaultInterval)
	orDefault(&sc.Duration, DefaultDuration)
	orDefault(&sc.FrameEvery, DefaultFrameEvery)
	orDefault(&sc.QueueDepth, DefaultQueueDepth)
	orDefault(&sc.RenderSlots, DefaultRenderSlots)
	return sc
}

// orDefault sets *v to def when it is not positive.
func orDefault[T int | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// Fleet is a built scenario: the gateway tier fronting its nodes, plus
// the shared clock and telemetry the run observes.
type Fleet struct {
	Scenario Scenario
	Clock    *vclock.Virtual
	Gateway  *gateway.Gateway
	Nodes    []*gateway.Node
	Registry *uddi.Registry
	Metrics  *telemetry.Registry
	// Topology is the shared region map (nil on a flat fleet).
	Topology *netsim.Topology
	// plans holds each node's disk fault plan (sick-disk scenarios
	// only): journal-backed nodes share one plan per node, so poisoning
	// it fails every session journal on that node at once.
	plans map[string]*wal.StoreFaults
}

// nodeName and sessionName/tenantOf fix the naming scheme the whole
// harness (and its tests) share.
func nodeName(i int) string    { return fmt.Sprintf("ds-%02d", i) }
func sessionName(i int) string { return fmt.Sprintf("load-%05d", i) }
func (sc Scenario) tenant(session int) string {
	return fmt.Sprintf("tenant-%02d", session%sc.Tenants)
}

// BuildFleet stands up the scenario's fleet on a fresh virtual clock:
// nodes joined to the gateway, every session opened (placed, leased,
// mirrored) and warmed with one mutation so failover has state to
// carry.
func BuildFleet(sc Scenario) (*Fleet, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	clk := vclock.NewVirtual(time.Unix(0, 0))
	reg := uddi.NewRegistry()
	met := telemetry.NewRegistry(clk)
	var topo *netsim.Topology
	gwRegion := ""
	if len(sc.Regions) > 0 {
		topo = netsim.NewTopology()
		gwRegion = sc.Regions[0]
	}
	gw, err := gateway.New(gateway.Config{
		Clock:             clk,
		Leases:            reg,
		Metrics:           met,
		QueueDepth:        sc.QueueDepth,
		ReplicationFactor: sc.Replicas,
		Region:            gwRegion,
		Topology:          topo,
	})
	if err != nil {
		return nil, err
	}
	f := &Fleet{Scenario: sc, Clock: clk, Gateway: gw, Registry: reg, Metrics: met, Topology: topo,
		plans: map[string]*wal.StoreFaults{}}
	for i := 0; i < sc.Nodes; i++ {
		ncfg := gateway.NodeConfig{
			Name:        nodeName(i),
			Region:      sc.nodeRegion(i),
			Clock:       clk,
			Metrics:     met,
			RenderSlots: sc.RenderSlots,
		}
		if sc.SickDiskAt > 0 {
			// Sick-disk runs pay for durability: every primary journals
			// through a per-node fault plan, so poisoning it fails the
			// whole node's storage mid-run. Other scenarios keep the
			// memory-only nodes of earlier PRs — their BENCH artifacts
			// stay comparable across the PR sequence.
			plan := wal.NewStoreFaults(uint64(sc.Seed) + uint64(i)*1000003)
			f.plans[ncfg.Name] = plan
			ncfg.Journal = func(string) wal.Store {
				return wal.NewFaultStore(wal.NewMemStore(), plan)
			}
		}
		n := gateway.NewNode(ncfg)
		if err := gw.AddNode(n); err != nil {
			return nil, err
		}
		f.Nodes = append(f.Nodes, n)
	}
	for i := 0; i < sc.Sessions; i++ {
		if err := gw.OpenSession(sc.tenant(i), sessionName(i)); err != nil {
			return nil, fmt.Errorf("open session %d: %w", i, err)
		}
	}
	return f, nil
}

// bootstrapBytes reads the fleet's bootstrap-byte accounting: the
// cross-region series summed fleet-wide, and every series on nodes
// inside victimRegion (bytes served by the to-be-cut region's own
// primaries). Sampled at the partition cut and again at the heal, the
// two deltas measure traffic that crossed the partition: both must be
// zero while the cut is up — surviving primaries must not seed across
// the WAN, and cut primaries must not serve anyone.
func (f *Fleet) bootstrapBytes(victimRegion string) (cross, victim int64) {
	vr := netsim.ParseLocality(victimRegion).Region
	for _, n := range f.Nodes {
		c := f.Metrics.Counter(n.Name(), "bootstrap_bytes_total", "cross").Value()
		cross += c
		if vr != "" && netsim.ParseLocality(n.Region()).Region == vr {
			victim += c + f.Metrics.Counter(n.Name(), "bootstrap_bytes_total", "local").Value()
		}
	}
	return cross, victim
}

// storageOutcome reads the end-of-run sick-disk invariants off the
// fleet: how many sessions the sick node still owns (must be zero —
// full evacuation) and how many sessions sit below the achievable
// replication factor on healthy nodes (must be zero — re-replication
// restored factor N).
func (f *Fleet) storageOutcome(sickNode string) (owns, deficit int64) {
	healthy := 0
	for _, n := range f.Nodes {
		if n.Alive() && !n.StorageDegraded() {
			healthy++
		}
	}
	expected := max(min(max(f.Scenario.Replicas, 1), healthy-1), 0)
	for i := 0; i < f.Scenario.Sessions; i++ {
		owner, replicas, _, ok := f.Gateway.Placement(sessionName(i))
		if !ok {
			continue
		}
		if owner == sickNode {
			owns++
		}
		live := 0
		for _, r := range replicas {
			if r != sickNode {
				live++
			}
		}
		if live < expected {
			deficit++
		}
	}
	return owns, deficit
}

// PickVictim chooses the kill target: the node owning the most
// sessions, so the kill exercises the largest possible failover wave.
func (f *Fleet) PickVictim() *gateway.Node {
	counts := map[string]int{}
	for _, owner := range f.Gateway.Placements() {
		counts[owner]++
	}
	best := f.Nodes[0]
	for _, n := range f.Nodes {
		if counts[n.Name()] > counts[best.Name()] {
			best = n
		}
	}
	return best
}
