package chaos

import (
	"context"
	"errors"
	"io"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/gateway"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/renderservice"
	"repro/internal/retry"
	"repro/internal/telemetry"
	"repro/internal/uddi"
)

// TestRegionPartitionUnderLoadHealsGapOnly is the locality tier's
// headline chaos scenario: a two-region raveload fleet (factor-2,
// region-spread replicas) runs its open-loop population while the
// second region is cut off mid-run and healed before the end. A
// direct-socket subscriber rides on a session whose primary sits in
// the doomed region — its connection dies with the partition and it
// must chase the gateway's re-route — and a bystander subscriber rides
// an unaffected session. The run must end with:
//
//   - zero client-visible errors and zero lost sessions, with every
//     cut-region session promoted onto a surviving replica (the
//     Results.Check contract, which for a partition run also gates the
//     locality invariants below);
//   - zero bootstrap bytes crossing the partition while it is up:
//     survivors re-replicate in-region, cut primaries serve nobody;
//   - deposed primaries fenced: the pre-partition owner's lease epoch
//     can never renew again — ErrLeaseStale, the split-brain guard;
//   - gap-only recovery end to end: the rerouted subscriber resumes
//     from its SinceVersion without ever being re-snapshotted, and the
//     heal re-attaches the stranded cut-side copies by replaying only
//     the missed ops — placement returns to its pre-partition map with
//     every copy converged;
//   - the bystander undisturbed: same owner, one initial snapshot.
func TestRegionPartitionUnderLoadHealsGapOnly(t *testing.T) {
	sc := loadgen.Scenario{
		Nodes:       4,
		Sessions:    48,
		Tenants:     4,
		Duration:    6 * time.Second,
		Seed:        11,
		Regions:     []string{"eu", "us"},
		Replicas:    2,
		PartitionAt: 2 * time.Second,
		HealAt:      4 * time.Second,
	}
	f, err := loadgen.BuildFleet(sc)
	if err != nil {
		t.Fatal(err)
	}
	clk := f.Clock
	g := f.Gateway

	region := func(node string) string {
		n, ok := g.Node(node)
		if !ok {
			t.Fatalf("node %q not joined", node)
		}
		return n.Region()
	}

	// Placement is deterministic before any membership change, so the
	// test can pick watched sessions on both sides of the cut.
	placements := g.Placements()
	sessions := make([]string, 0, len(placements))
	for s := range placements {
		sessions = append(sessions, s)
	}
	sort.Strings(sessions)
	var cutSession, bystander string
	for _, s := range sessions {
		if region(placements[s]) == "us" && cutSession == "" {
			cutSession = s
		}
		if region(placements[s]) == "eu" && bystander == "" {
			bystander = s
		}
	}
	if cutSession == "" || bystander == "" {
		t.Fatalf("placement never spread across regions: %v", placements)
	}
	preOwner, preReplicas, preEpoch, ok := g.Placement(cutSession)
	if !ok || len(preReplicas) != 2 {
		t.Fatalf("cut session %s: owner %q replicas %v", cutSession, preOwner, preReplicas)
	}
	surviving := ""
	for _, r := range preReplicas {
		if region(r) == "eu" {
			surviving = r
		}
	}
	if surviving == "" {
		t.Fatalf("cut session %s keeps no cross-region replica %v; the partition would lose it", cutSession, preReplicas)
	}

	// Subscribers dial whatever node the gateway currently routes the
	// session to. Serve ends landing in the doomed region are tracked so
	// the partition can sever them the way a real cut would.
	var connMu sync.Mutex
	var usConns, allConns []io.Closer
	dial := func(session string) func() (io.ReadWriteCloser, error) {
		return func() (io.ReadWriteCloser, error) {
			node, _, err := g.Route(session)
			if err != nil {
				return nil, err
			}
			serveEnd, dialEnd := netsim.SimPipe(clk, instant(), instant())
			connMu.Lock()
			allConns = append(allConns, serveEnd)
			if node.Region() == "us" {
				usConns = append(usConns, serveEnd)
			}
			connMu.Unlock()
			go node.Service().ServeConn(serveEnd)
			return dialEnd, nil
		}
	}
	rs := renderservice.New(renderservice.Config{Name: "watcher", Device: device.AthlonDesktop, Workers: 1, Clock: clk})
	opts := renderservice.SubscribeOpts{Region: "eu", Retry: retry.Policy{MaxAttempts: 200, BaseDelay: 5 * time.Millisecond, Multiplier: 1.5}}
	subCtx, subCancel := context.WithCancel(context.Background())
	defer subCancel()
	subscribe := func(session string) (<-chan *renderservice.Session, <-chan error) {
		ready := make(chan *renderservice.Session, 4)
		errc := make(chan error, 1)
		go func() {
			errc <- rs.SubscribeToDataResilient(subCtx, dial(session), session, opts, func(s *renderservice.Session) {
				select {
				case ready <- s:
				default:
				}
			})
		}()
		return ready, errc
	}

	stopBoot := clk.Drive()
	// SinceVersion 0 means "no replica", so a subscriber cut at version 0
	// is re-snapshotted, not resumed. Commit one op before the watchers
	// bootstrap, so each is past version 0 whatever the run lands on its
	// session before the cut.
	for _, s := range []string{cutSession, bystander} {
		if _, err := g.Dispatch(context.Background(), gateway.Request{Tenant: "t", Session: s}); err != nil {
			t.Fatal(err)
		}
	}
	cutReady, cutErr := subscribe(cutSession)
	byReady, byErr := subscribe(bystander)
	var cutReplica, byReplica *renderservice.Session
	select {
	case cutReplica = <-cutReady:
	case <-time.After(15 * time.Second):
		t.Fatal("cut-side subscriber never bootstrapped")
	}
	select {
	case byReplica = <-byReady:
	case <-time.After(15 * time.Second):
		t.Fatal("bystander subscriber never bootstrapped")
	}
	stopBoot()

	// The cut severs live sockets into the partitioned region a
	// nanosecond after it lands — the subscriber discovers the partition
	// as a connection loss and chases the gateway's re-route. The run
	// starts now and its clock moves only when every goroutine is
	// blocked, so by then the fleet has cut the region.
	severed := make(chan bool, 1)
	clk.AfterFunc(sc.PartitionAt+time.Nanosecond, func() {
		connMu.Lock()
		for _, c := range usConns {
			c.Close()
		}
		connMu.Unlock()
		severed <- f.Topology.Partitioned()
	})

	rep := loadgen.NewReporter()
	f.Run(context.Background(), rep)
	if !<-severed {
		t.Fatal("sockets severed before the scenario cut the region")
	}

	art := f.Artifact(rep)
	res := art.Results
	if err := res.Check(f.Scenario); err != nil {
		t.Fatalf("client-visible damage under the partition: %v", err)
	}
	if res.Promotions == 0 {
		t.Fatalf("partition produced no promotions: %+v", res)
	}
	if art.Kind != telemetry.BenchKindPartition || art.Partition == nil {
		t.Fatalf("artifact kind %q partition %+v", art.Kind, art.Partition)
	}
	if art.Partition.Region != "us" || art.Partition.HealedAtNs != int64(sc.HealAt) {
		t.Errorf("partition event %+v, want region us healed at %v", art.Partition, sc.HealAt)
	}
	if art.Partition.CrossBootstrapBytes != 0 || art.Partition.VictimBootstrapBytes != 0 {
		t.Errorf("bootstrap bytes crossed the partition: cross %d victim %d, want 0/0",
			art.Partition.CrossBootstrapBytes, art.Partition.VictimBootstrapBytes)
	}

	// Deposed-primary fence: the pre-partition owner's epoch is history
	// (bumped by the failover and again by the heal); any renewal it
	// attempts is rejected as stale, so it can never split the session.
	if _, err := f.Registry.RenewLease(gateway.LeaseServicePrefix+cutSession, preOwner, preEpoch, time.Second, clk.Now()); !errors.Is(err, uddi.ErrLeaseStale) {
		t.Errorf("deposed primary renewal: %v, want ErrLeaseStale", err)
	}

	// Settle phase: the clock advances again so the severed subscriber
	// can finish its backoff-and-resume if the run ended mid-chase.
	stopSettle := clk.Drive()
	defer stopSettle()

	// The heal restored the pre-partition placement; the promoted
	// surviving replica carried the session through the cut and the
	// original owner adopted the missed ops back gap-only.
	owner, _, postEpoch, ok := g.Placement(cutSession)
	if !ok || owner != preOwner {
		t.Fatalf("cut session healed to %q (ok=%v), want its original owner %q restored", owner, ok, preOwner)
	}
	if postEpoch <= preEpoch {
		t.Errorf("cut session epoch %d after cut+heal, want > %d", postEpoch, preEpoch)
	}
	ownerNode, _ := g.Node(owner)
	ownerSess, ok := ownerNode.Service().Session(cutSession)
	if !ok {
		t.Fatalf("restored owner %s does not hold session %s", owner, cutSession)
	}

	// Gap-only end to end: across every copy of the cut session in the
	// fleet, exactly one client snapshot was ever served — the initial
	// bootstrap on the original owner. Every reconnect (the partition
	// re-route, any retry) was answered with a resume; a lagging or
	// re-seeded copy would have been forced into a second snapshot.
	countBootstraps := func() (snaps, resumes uint64) {
		for i := 0; i < sc.Nodes; i++ {
			n := f.Nodes[i]
			if sess, ok := n.Service().Session(cutSession); ok {
				s, r := sess.BootstrapStats()
				snaps += s
				resumes += r
			}
		}
		return snaps, resumes
	}
	waitFor(t, clk, "rerouted subscriber resume", func() bool {
		_, resumes := countBootstraps()
		return resumes >= 1
	})
	if snaps, resumes := countBootstraps(); snaps != 1 {
		t.Errorf("cut session served %d snapshots / %d resumes fleet-wide; want the single initial snapshot, all reconnects gap-only", snaps, resumes)
	}
	waitFor(t, clk, "cut-session copies converged", func() bool {
		v := ownerSess.Version()
		if cutReplica.Version() != v {
			return false
		}
		for _, acked := range g.ReplicaAcks(cutSession) {
			if acked != v {
				return false
			}
		}
		return true
	})

	// The bystander never noticed: same owner, one initial snapshot,
	// zero resumes, replica in sync.
	if owner, _, _, _ := g.Placement(bystander); owner != placements[bystander] {
		t.Errorf("bystander moved %s -> %s during a partition that never touched eu", placements[bystander], owner)
	}
	byNode, _ := g.Node(placements[bystander])
	bySess, ok := byNode.Service().Session(bystander)
	if !ok {
		t.Fatalf("bystander owner lost session %s", bystander)
	}
	if snaps, resumes := bySess.BootstrapStats(); snaps != 1 || resumes != 0 {
		t.Errorf("bystander served %d snapshots / %d resumes; want the single initial bootstrap", snaps, resumes)
	}
	waitFor(t, clk, "bystander replica in sync", func() bool {
		return byReplica.Version() == bySess.Version()
	})

	// Teardown: cancel, then sever every serve end — a canceled context
	// cannot interrupt a subscriber parked in a blocking pipe read.
	subCancel()
	connMu.Lock()
	for _, c := range allConns {
		c.Close()
	}
	connMu.Unlock()
	for name, errc := range map[string]<-chan error{"cut-side": cutErr, "bystander": byErr} {
		select {
		case err := <-errc:
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Logf("%s subscriber exit after forced close: %v", name, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%s subscriber never exited after cancel", name)
		}
	}
	t.Logf("partition moved and healed %d promotions, %d retries, cross/victim bytes 0/0, zero errors",
		res.Promotions, res.DispatchRetries)
}
