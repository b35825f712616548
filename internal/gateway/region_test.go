package gateway

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/uddi"
	"repro/internal/vclock"
)

// regionFleet builds a two-region fleet on a shared topology: n nodes
// alternating eu/us (even index eu), the gateway in eu, replication
// factor 2 so every session keeps one in-region and one cross-region
// copy beside its primary.
func regionFleet(t *testing.T, n int) (*Gateway, *uddi.Registry, *vclock.Virtual, *netsim.Topology) {
	t.Helper()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	reg := uddi.NewRegistry()
	met := telemetry.NewRegistry(clk)
	topo := netsim.NewTopology()
	gw, err := New(Config{
		Clock: clk, Leases: reg, Metrics: met,
		Region: "eu", Topology: topo, ReplicationFactor: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		region := "eu"
		if i%2 == 1 {
			region = "us"
		}
		node := NewNode(NodeConfig{
			Name: fmt.Sprintf("ds-%d", i), Region: region,
			Clock: clk, Metrics: met,
		})
		if err := gw.AddNode(node); err != nil {
			t.Fatal(err)
		}
	}
	return gw, reg, clk, topo
}

// crossSeedBytes sums the fleet's cross-region bootstrap-byte counters.
func crossSeedBytes(gw *Gateway, n int) int64 {
	snap := gw.cfg.Metrics.Snapshot()
	var total int64
	for i := 0; i < n; i++ {
		total += snap.CounterValue(fmt.Sprintf("ds-%d", i), "bootstrap_bytes_total", "cross")
	}
	return total
}

// nodeRegion looks up a joined node's region.
func nodeRegion(t *testing.T, gw *Gateway, name string) string {
	t.Helper()
	n, ok := gw.Node(name)
	if !ok {
		t.Fatalf("node %s not joined", name)
	}
	return n.Region()
}

// TestReplicaTargetsSpreadAcrossRegions: with two regions and factor 2,
// every session's replica set holds exactly one copy in the owner's
// region and one across the WAN — losing either a node or a whole
// region leaves a copy to promote.
func TestReplicaTargetsSpreadAcrossRegions(t *testing.T) {
	gw, _, _, _ := regionFleet(t, 4)
	const sessions = 16
	for i := 0; i < sessions; i++ {
		if err := gw.OpenSession("t", fmt.Sprintf("sess-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sessions; i++ {
		s := fmt.Sprintf("sess-%02d", i)
		owner, replicas, _, ok := gw.Placement(s)
		if !ok || len(replicas) != 2 {
			t.Fatalf("%s: owner %q replicas %v ok=%v, want 2 replicas", s, owner, replicas, ok)
		}
		ownerRegion := nodeRegion(t, gw, owner)
		in, out := 0, 0
		for _, r := range replicas {
			if r == owner {
				t.Errorf("%s lists its owner %s as a replica", s, owner)
			}
			if nodeRegion(t, gw, r) == ownerRegion {
				in++
			} else {
				out++
			}
		}
		if in != 1 || out != 1 {
			t.Errorf("%s (owner %s in %s): replicas %v spread %d in-region / %d cross, want 1/1",
				s, owner, ownerRegion, replicas, in, out)
		}
	}
}

// TestPartitionFailsOverAndFencesDeposedPrimaries: cutting the us
// region moves every us-owned session onto one of its surviving eu
// replicas under a bumped lease epoch; the deposed primary's renewal
// attempts come back ErrLeaseStale, and eu-owned sessions never move.
func TestPartitionFailsOverAndFencesDeposedPrimaries(t *testing.T) {
	gw, reg, clk, topo := regionFleet(t, 4)
	const sessions = 16
	for i := 0; i < sessions; i++ {
		if err := gw.OpenSession("t", fmt.Sprintf("sess-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	stop := clk.Drive()
	defer stop()
	ctx := context.Background()
	for i := 0; i < sessions; i++ {
		if _, err := gw.Dispatch(ctx, Request{Tenant: "t", Session: fmt.Sprintf("sess-%02d", i)}); err != nil {
			t.Fatal(err)
		}
	}

	preOwner := map[string]string{}
	preReplicas := map[string][]string{}
	preEpoch := map[string]uint64{}
	for i := 0; i < sessions; i++ {
		s := fmt.Sprintf("sess-%02d", i)
		owner, reps, epoch, _ := gw.Placement(s)
		preOwner[s], preReplicas[s], preEpoch[s] = owner, reps, epoch
	}

	topo.Partition("us")
	gw.TopologyChanged()

	cut := 0
	for i := 0; i < sessions; i++ {
		s := fmt.Sprintf("sess-%02d", i)
		owner, replicas, epoch, ok := gw.Placement(s)
		if !ok {
			t.Fatalf("%s lost its placement in the partition", s)
		}
		if nodeRegion(t, gw, preOwner[s]) == "eu" {
			if owner != preOwner[s] || epoch != preEpoch[s] {
				t.Errorf("%s (eu-owned) moved %s@%d -> %s@%d during a partition that never touched eu",
					s, preOwner[s], preEpoch[s], owner, epoch)
			}
		} else {
			cut++
			if nodeRegion(t, gw, owner) != "eu" {
				t.Errorf("%s failed over to %s in the cut region", s, owner)
			}
			wasReplica := false
			for _, r := range preReplicas[s] {
				if r == owner {
					wasReplica = true
				}
			}
			if !wasReplica {
				t.Errorf("%s landed on %s, not one of its replicas %v", s, owner, preReplicas[s])
			}
			if epoch <= preEpoch[s] {
				t.Errorf("%s moved without an epoch bump (%d -> %d)", s, preEpoch[s], epoch)
			}
			// The deposed primary is fenced: its lease epoch is history,
			// so any renewal it attempts from inside the partition is
			// rejected as stale — it can never split the session.
			_, err := reg.RenewLease(LeaseServicePrefix+s, preOwner[s], preEpoch[s], time.Second, clk.Now())
			if !errors.Is(err, uddi.ErrLeaseStale) {
				t.Errorf("%s deposed primary renewal: %v, want ErrLeaseStale", s, err)
			}
		}
		// Mid-partition the replica set must live entirely on the
		// reachable side.
		for _, r := range replicas {
			if nodeRegion(t, gw, r) != "eu" {
				t.Errorf("%s keeps replica %s across the partition", s, r)
			}
		}
		// And the session still serves.
		if _, err := gw.Dispatch(ctx, Request{Tenant: "t", Session: s}); err != nil {
			t.Errorf("%s dispatch during partition: %v", s, err)
		}
	}
	if cut == 0 {
		t.Fatal("no session was owned in the cut region; test proves nothing")
	}
	snap := gw.cfg.Metrics.Snapshot()
	if lost := snap.CounterValue("gw", "sessions_lost_total", ""); lost != 0 {
		t.Errorf("sessions_lost_total = %d during partition, want 0", lost)
	}
	if promos := snap.CounterValue("gw", "promotions_total", ""); promos < int64(cut) {
		t.Errorf("promotions_total = %d, want >= %d (every cut session promoted)", promos, cut)
	}
}

// TestHealReattachesStrandedCopiesGapOnly: healing the partition
// restores the ring — sessions move back to their original owners and
// the stranded cut-side copies are re-attached by replaying only the
// missed ops. Not one bootstrap byte crosses regions after the initial
// seeding: the whole cut-recover-heal cycle is gap-only.
func TestHealReattachesStrandedCopiesGapOnly(t *testing.T) {
	gw, _, clk, topo := regionFleet(t, 4)
	const sessions = 16
	for i := 0; i < sessions; i++ {
		if err := gw.OpenSession("t", fmt.Sprintf("sess-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	stop := clk.Drive()
	defer stop()
	ctx := context.Background()
	mutateAll := func(tag string) {
		for i := 0; i < sessions; i++ {
			if _, err := gw.Dispatch(ctx, Request{Tenant: "t", Session: fmt.Sprintf("sess-%02d", i)}); err != nil {
				t.Fatalf("%s dispatch sess-%02d: %v", tag, i, err)
			}
		}
	}
	mutateAll("warm")

	preOwner := map[string]string{}
	for i := 0; i < sessions; i++ {
		s := fmt.Sprintf("sess-%02d", i)
		preOwner[s], _, _, _ = gw.Placement(s)
	}
	// Baseline after initial seeding: the factor-2 spread legitimately
	// shipped one cross-region snapshot per session; everything after
	// this point must be gap-only.
	crossBaseline := crossSeedBytes(gw, 4)

	topo.Partition("us")
	gw.TopologyChanged()
	mutateAll("partitioned") // cut sessions now advance on eu survivors
	if got := crossSeedBytes(gw, 4); got != crossBaseline {
		t.Fatalf("cross-region bootstrap bytes grew %d -> %d during the partition; survivors must re-replicate in-region",
			crossBaseline, got)
	}

	topo.Heal()
	gw.TopologyChanged()

	for i := 0; i < sessions; i++ {
		s := fmt.Sprintf("sess-%02d", i)
		owner, _, _, ok := gw.Placement(s)
		if !ok || owner != preOwner[s] {
			t.Errorf("%s healed to %s, want its original owner %s restored", s, owner, preOwner[s])
			continue
		}
		// The restored owner's copy carries the ops applied while it was
		// cut off: version 2 (warm + partitioned mutate), not a reset.
		n, _ := gw.Node(owner)
		sess, ok := n.Service().Session(s)
		if !ok || sess.Version() != 2 {
			v := uint64(0)
			if ok {
				v = sess.Version()
			}
			t.Errorf("%s on restored owner %s at version %d, want 2 (gap replayed)", s, owner, v)
		}
	}
	// The heal itself moved sessions back and re-attached every
	// stranded replica without a single cross-region re-seed.
	if got := crossSeedBytes(gw, 4); got != crossBaseline {
		t.Errorf("cross-region bootstrap bytes grew %d -> %d across the heal; catch-up must be gap-only",
			crossBaseline, got)
	}
	mutateAll("healed") // and the restored fleet still serves everywhere
	snap := gw.cfg.Metrics.Snapshot()
	if lost := snap.CounterValue("gw", "sessions_lost_total", ""); lost != 0 {
		t.Errorf("sessions_lost_total = %d across cut and heal, want 0", lost)
	}
}
