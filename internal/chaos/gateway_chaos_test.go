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
)

// TestGatewayKillUnderLoadGapOnlyResume is the gateway tier's headline
// chaos scenario: a raveload fleet runs its open-loop population while
// the most-loaded data-service node is killed mid-run, telling nobody.
// Two direct-socket subscribers ride along — one on a session the
// victim owns, one on a session it doesn't — and the run must end with:
//
//   - zero client-visible errors (declines are backpressure, not
//     errors; everything else conserved — the Results.Check contract);
//   - the victim's sessions promoted to their standbys, which carry
//     the op history: the rerouted subscriber's reconnect advertises
//     Hello.SinceVersion and is answered with a gap-only resume, never
//     a full snapshot;
//   - the bystander subscriber undisturbed (one initial snapshot, no
//     resumes, owner unchanged);
//   - lease epochs monotonic across the kill: every session's epoch is
//     ≥ its pre-run value, strictly greater exactly when ownership
//     moved, and the lease names the current owner.
func TestGatewayKillUnderLoadGapOnlyResume(t *testing.T) {
	sc := loadgen.Scenario{
		Nodes:      4,
		Sessions:   48,
		Tenants:    4,
		Duration:   3 * time.Second,
		KillNodeAt: 1500 * time.Millisecond,
		Seed:       11,
	}
	f, err := loadgen.BuildFleet(sc)
	if err != nil {
		t.Fatal(err)
	}
	clk := f.Clock
	g := f.Gateway

	// The kill policy is deterministic before any membership change, so
	// the test can predict the victim and pick watched sessions on both
	// sides of the blast radius.
	victim := f.PickVictim()
	placements := g.Placements()
	sessions := make([]string, 0, len(placements))
	for s := range placements {
		sessions = append(sessions, s)
	}
	sort.Strings(sessions)
	var onVictim, bystander string
	for _, s := range sessions {
		if placements[s] == victim.Name() && onVictim == "" {
			onVictim = s
		}
		if placements[s] != victim.Name() && bystander == "" {
			bystander = s
		}
	}
	if onVictim == "" || bystander == "" {
		t.Fatalf("placement never spread across nodes: %v", placements)
	}
	_, preReplicas, _, _ := g.Placement(onVictim)
	if len(preReplicas) == 0 {
		t.Fatalf("session %s has no replicas; the kill would lose it", onVictim)
	}
	for _, r := range preReplicas {
		if r == victim.Name() {
			t.Fatalf("session %s lists its own owner %s as a replica", onVictim, r)
		}
	}
	preEpoch := make(map[string]uint64, len(sessions))
	for _, s := range sessions {
		l, _, err := f.Registry.GetLease(gateway.LeaseServicePrefix+s, clk.Now())
		if err != nil || l.Epoch == 0 {
			t.Fatalf("pre-run lease for %s: %+v, %v", s, l, err)
		}
		preEpoch[s] = l.Epoch
	}

	// Subscribers dial whatever node the gateway currently routes the
	// session to — the reroute-following behavior under test. Serve ends
	// landing on the victim are tracked so the kill can sever them the
	// way a dead host would.
	var connMu sync.Mutex
	var victimConns, allConns []io.Closer
	dial := func(session string) func() (io.ReadWriteCloser, error) {
		return func() (io.ReadWriteCloser, error) {
			node, _, err := g.Route(session)
			if err != nil {
				return nil, err
			}
			serveEnd, dialEnd := netsim.SimPipe(clk, instant(), instant())
			connMu.Lock()
			allConns = append(allConns, serveEnd)
			if node == victim {
				victimConns = append(victimConns, serveEnd)
			}
			connMu.Unlock()
			go node.Service().ServeConn(serveEnd)
			return dialEnd, nil
		}
	}
	rs := renderservice.New(renderservice.Config{Name: "watcher", Device: device.AthlonDesktop, Workers: 1, Clock: clk})
	opts := renderservice.SubscribeOpts{Retry: retry.Policy{MaxAttempts: 200, BaseDelay: 5 * time.Millisecond, Multiplier: 1.5}}
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
	onReady, onErr := subscribe(onVictim)
	byReady, byErr := subscribe(bystander)
	var onReplica, byReplica *renderservice.Session
	select {
	case onReplica = <-onReady:
	case <-time.After(15 * time.Second):
		t.Fatal("victim-side subscriber never bootstrapped")
	}
	select {
	case byReplica = <-byReady:
	case <-time.After(15 * time.Second):
		t.Fatal("bystander subscriber never bootstrapped")
	}
	stopBoot()

	// The kill severs the victim's live sockets a nanosecond after it
	// lands — the subscriber must discover the death as a connection loss
	// and chase the gateway's rerouting, exactly like a host going dark.
	// The run starts now and its clock moves only when every goroutine is
	// blocked, so by then the fleet has killed the victim.
	severAt := clk.After(sc.KillNodeAt + time.Nanosecond)
	severed := make(chan bool, 1)
	go func() {
		<-severAt
		connMu.Lock()
		for _, c := range victimConns {
			c.Close()
		}
		connMu.Unlock()
		severed <- !victim.Alive()
	}()

	rep := loadgen.NewReporter()
	f.Run(context.Background(), rep)
	if !<-severed {
		t.Fatal("sockets severed before the scenario killed the victim")
	}

	art := f.Artifact(rep)
	res := art.Results
	if err := res.Check(f.Scenario); err != nil {
		t.Fatalf("client-visible damage under the kill: %v", err)
	}
	if res.Promotions == 0 {
		t.Fatalf("kill produced no standby promotions: %+v", res)
	}

	// Settle phase: the clock advances again so the severed subscriber
	// can finish its backoff-and-resume if the run ended mid-chase.
	stopSettle := clk.Drive()
	defer stopSettle()

	newOwner, _, _, ok := g.Placement(onVictim)
	wasReplica := false
	for _, r := range preReplicas {
		if r == newOwner {
			wasReplica = true
		}
	}
	if !ok || !wasReplica {
		t.Fatalf("session %s landed on %q (ok=%v), want one of its pre-kill replicas %v — failover must promote a mirror, not re-place arbitrarily",
			onVictim, newOwner, ok, preReplicas)
	}
	ownerNode, ok := g.Node(newOwner)
	if !ok {
		t.Fatalf("owner %s not registered", newOwner)
	}
	promoted, ok := ownerNode.Service().Session(onVictim)
	if !ok {
		t.Fatalf("promoted node %s does not hold session %s", newOwner, onVictim)
	}
	// Most-caught-up-wins: no surviving replica may hold a version the
	// promoted primary lacks. (The gap-only resume below enforces the
	// same rule from the subscriber's side — a lagging promotion could
	// not cover the reconnect's SinceVersion and would be forced into a
	// snapshot.)
	for name, acked := range g.ReplicaAcks(onVictim) {
		if acked > promoted.Version() {
			t.Errorf("replica %s acked %d but the promoted primary is at %d — promotion picked a lagging copy",
				name, acked, promoted.Version())
		}
	}
	waitFor(t, clk, "rerouted subscriber resume", func() bool {
		_, resumes := promoted.BootstrapStats()
		return resumes >= 1
	})
	if snaps, resumes := promoted.BootstrapStats(); snaps != 0 || resumes != 1 {
		t.Errorf("promoted session served %d snapshots / %d resumes; want exactly one gap-only resume", snaps, resumes)
	}
	waitFor(t, clk, "rerouted replica catch-up", func() bool {
		return onReplica.Version() == promoted.Version()
	})

	// The bystander never noticed: same owner, one initial snapshot,
	// zero resumes, replica in sync.
	if owner, _, _, _ := g.Placement(bystander); owner != placements[bystander] {
		t.Errorf("bystander session moved %s → %s during a kill that didn't touch its owner", placements[bystander], owner)
	}
	byNode, _ := g.Node(placements[bystander])
	bySess, ok := byNode.Service().Session(bystander)
	if !ok {
		t.Fatalf("bystander owner lost session %s", bystander)
	}
	if snaps, resumes := bySess.BootstrapStats(); snaps != 1 || resumes != 0 {
		t.Errorf("bystander session served %d snapshots / %d resumes; want the single initial bootstrap", snaps, resumes)
	}
	waitFor(t, clk, "bystander replica in sync", func() bool {
		return byReplica.Version() == bySess.Version()
	})

	// Lease-epoch monotonicity: ≥ everywhere, strict exactly where
	// ownership moved, holder = current owner. (Expired leases still
	// carry their epoch — that is what lets a standby claim succession.)
	moved, stayed := 0, 0
	for _, s := range sessions {
		owner, _, gwEpoch, ok := g.Placement(s)
		if !ok {
			t.Fatalf("session %s lost its placement", s)
		}
		l, _, err := f.Registry.GetLease(gateway.LeaseServicePrefix+s, clk.Now())
		if err != nil {
			t.Fatal(err)
		}
		if l.Holder != owner || l.Epoch != gwEpoch {
			t.Errorf("session %s: lease %s@%d disagrees with gateway %s@%d", s, l.Holder, l.Epoch, owner, gwEpoch)
		}
		switch {
		case owner == placements[s]:
			stayed++
			if l.Epoch != preEpoch[s] {
				t.Errorf("session %s never moved but epoch went %d → %d", s, preEpoch[s], l.Epoch)
			}
		default:
			moved++
			if l.Epoch <= preEpoch[s] {
				t.Errorf("session %s moved %s → %s without an epoch bump (%d → %d)", s, placements[s], owner, preEpoch[s], l.Epoch)
			}
		}
	}
	if moved == 0 || stayed == 0 {
		t.Errorf("kill moved %d and left %d sessions; want both populations exercised", moved, stayed)
	}

	// Teardown: cancel, then sever every serve end — a canceled context
	// cannot interrupt a subscriber parked in a blocking pipe read, and
	// the dead-socket error it gets instead is teardown noise, not a
	// client-visible failure (those were asserted above).
	subCancel()
	connMu.Lock()
	for _, c := range allConns {
		c.Close()
	}
	connMu.Unlock()
	for name, errc := range map[string]<-chan error{"victim-side": onErr, "bystander": byErr} {
		select {
		case err := <-errc:
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Logf("%s subscriber exit after forced close: %v", name, err)
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("%s subscriber never exited after cancel", name)
		}
	}
	t.Logf("kill moved %d sessions (epoch-bumped), left %d in place; %d promotions, %d retries, zero errors",
		moved, stayed, res.Promotions, res.DispatchRetries)
}
