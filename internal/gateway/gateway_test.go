package gateway

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/scene"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/uddi"
	"repro/internal/vclock"
)

// testFleet builds a gateway fronting n nodes on one virtual clock,
// one UDDI registry and one shared telemetry registry.
func testFleet(t *testing.T, n int, cfg NodeConfig) (*Gateway, *uddi.Registry, *vclock.Virtual) {
	t.Helper()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	reg := uddi.NewRegistry()
	met := telemetry.NewRegistry(clk)
	gw, err := New(Config{Clock: clk, Leases: reg, Metrics: met})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c := cfg
		c.Name = fmt.Sprintf("ds-%d", i)
		c.Clock = clk
		c.Metrics = met
		if err := gw.AddNode(NewNode(c)); err != nil {
			t.Fatal(err)
		}
	}
	return gw, reg, clk
}

// TestOpenSessionPlacesLeasesAndMirrors: opening a session stamps an
// epoch-1 ownership lease for the ring owner, creates the session
// there, and seeds a standby mirror at the ring successor.
func TestOpenSessionPlacesLeasesAndMirrors(t *testing.T) {
	gw, reg, clk := testFleet(t, 3, NodeConfig{})
	if err := gw.OpenSession("tenant-a", "alpha"); err != nil {
		t.Fatal(err)
	}
	owner, replicas, epoch, ok := gw.Placement("alpha")
	if !ok || owner == "" || len(replicas) == 0 || replicas[0] == owner {
		t.Fatalf("placement: owner %q replicas %v ok=%v", owner, replicas, ok)
	}
	standby := replicas[0]
	if epoch != 1 {
		t.Errorf("fresh session epoch = %d, want 1", epoch)
	}
	lease, live, err := reg.GetLease(LeaseServicePrefix+"alpha", clk.Now())
	if err != nil || !live {
		t.Fatalf("lease: %v live=%v", err, live)
	}
	if lease.Holder != owner || lease.Epoch != 1 {
		t.Errorf("lease holder %q epoch %d, want %q epoch 1", lease.Holder, lease.Epoch, owner)
	}
	for _, name := range []string{owner, standby} {
		n, _ := gw.Node(name)
		if _, ok := n.Service().Session("alpha"); !ok {
			t.Errorf("node %s missing session copy", name)
		}
	}
	if err := gw.OpenSession("tenant-a", "alpha"); err == nil {
		t.Error("double open accepted")
	}
}

// TestDispatchMutateAndFrame: mutates advance the scene version,
// frames observe it, and both charge modeled virtual time.
func TestDispatchMutateAndFrame(t *testing.T) {
	gw, _, clk := testFleet(t, 2, NodeConfig{})
	if err := gw.OpenSession("t", "s"); err != nil {
		t.Fatal(err)
	}
	stop := clk.Drive()
	defer stop()
	ctx := context.Background()
	for want := uint64(1); want <= 3; want++ {
		res, err := gw.Dispatch(ctx, Request{Tenant: "t", Session: "s", Kind: KindMutate})
		if err != nil {
			t.Fatal(err)
		}
		if res.Version != want {
			t.Fatalf("mutate %d: version %d", want, res.Version)
		}
	}
	res, err := gw.Dispatch(ctx, Request{Tenant: "t", Session: "s", Kind: KindFrame, Interactive: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 3 {
		t.Errorf("frame observed version %d, want 3", res.Version)
	}
	snap := gw.cfg.Metrics.Snapshot()
	if got := snap.CounterValue("gw", "requests_total", "mutate"); got != 3 {
		t.Errorf("requests_total{mutate} = %d", got)
	}
	if got := snap.CounterValue("gw", "requests_total", "frame"); got != 1 {
		t.Errorf("requests_total{frame} = %d", got)
	}
}

// TestDispatchUnknownSession: routing a session nobody opened is an
// error, not a hang.
func TestDispatchUnknownSession(t *testing.T) {
	gw, _, _ := testFleet(t, 2, NodeConfig{})
	if _, err := gw.Dispatch(context.Background(), Request{Tenant: "t", Session: "ghost"}); err == nil {
		t.Error("dispatch to unknown session succeeded")
	}
}

// TestFrameCapacityDecline: when the owner's render slots are all
// reserved, a frame is declined with the typed capacity reason and a
// retry hint — never queued, never an opaque error.
func TestFrameCapacityDecline(t *testing.T) {
	gw, _, _ := testFleet(t, 1, NodeConfig{RenderSlots: 1})
	if err := gw.OpenSession("t", "s"); err != nil {
		t.Fatal(err)
	}
	owner, _, _, _ := gw.Placement("s")
	node, _ := gw.Node(owner)
	release, err := node.reserve()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	_, err = gw.Dispatch(context.Background(), Request{Tenant: "t", Session: "s", Kind: KindFrame})
	var dec *transport.Decline
	if !errors.As(err, &dec) || dec.Reason != ReasonCapacity {
		t.Fatalf("err = %v, want capacity decline", err)
	}
	if dec.RetryAfter <= 0 {
		t.Errorf("capacity decline without retry hint: %+v", dec)
	}
}

// TestAdmissionFairShare: the gate applies the render service's
// two-class rule per tenant — whole depth for interactive, half for
// background — and once contended caps each tenant at its share so one
// tenant cannot starve another.
func TestAdmissionFairShare(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	met := telemetry.NewRegistry(clk)
	adm := admission.New("gw", 8, DefaultRenderCost, clk, met)
	adm.Register("t1")
	adm.Register("t2")

	var releases []func(time.Duration)
	for i := 0; i < 4; i++ {
		rel, err := adm.Admit("t1", true, time.Time{})
		if err != nil {
			t.Fatalf("t1 admit %d: %v", i, err)
		}
		releases = append(releases, rel)
	}
	// Gate is now contended (inflight 4 of depth 8): t1 is at its
	// share (8/2 tenants = 4) and gets a tenant-share decline...
	var dec *transport.Decline
	if _, err := adm.Admit("t1", true, time.Time{}); !errors.As(err, &dec) || dec.Reason != admission.ReasonTenantShare {
		t.Fatalf("t1 over share: %v, want tenant-share decline", err)
	}
	// ...while t2 still gets in.
	rel, err := adm.Admit("t2", true, time.Time{})
	if err != nil {
		t.Fatalf("t2 admit while t1 at share: %v", err)
	}
	releases = append(releases, rel)
	for _, r := range releases {
		r(time.Millisecond)
	}
	// Uncontended again: t1 may burst past its share (work
	// conservation — idle capacity is never withheld).
	if _, err := adm.Admit("t1", true, time.Time{}); err != nil {
		t.Fatalf("t1 burst on idle gate: %v", err)
	}

	// Expired deadlines are declined at the door.
	clk.Advance(time.Second)
	if _, err := adm.Admit("t2", true, clk.Now().Add(-time.Millisecond)); !errors.As(err, &dec) || dec.Reason != admission.ReasonExpired {
		t.Fatalf("expired admit: %v", err)
	}
}

// TestAdmissionBackgroundHalfDepth: background work only ever fills
// half the queue; interactive may take it all.
func TestAdmissionBackgroundHalfDepth(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	adm := admission.New("gw", 8, DefaultRenderCost, clk, telemetry.NewRegistry(clk))
	adm.Register("t1")
	for i := 0; i < 4; i++ {
		if _, err := adm.Admit("t1", false, time.Time{}); err != nil {
			t.Fatalf("background admit %d: %v", i, err)
		}
	}
	var dec *transport.Decline
	if _, err := adm.Admit("t1", false, time.Time{}); !errors.As(err, &dec) || dec.Reason != admission.ReasonQueueFull {
		t.Fatalf("background over half depth: %v, want queue-full", err)
	}
	// The remaining half is still open to interactive work.
	for i := 0; i < 4; i++ {
		if _, err := adm.Admit("t1", true, time.Time{}); err != nil {
			t.Fatalf("interactive admit %d over background load: %v", i, err)
		}
	}
	if _, err := adm.Admit("t1", true, time.Time{}); !errors.As(err, &dec) || dec.Reason != admission.ReasonQueueFull {
		t.Fatalf("interactive over full depth: %v, want queue-full", err)
	}
}

// TestDispatchDeclinesInfeasibleDeadline: once the gate has timed a
// dispatch, a request whose deadline is ahead of now but behind the
// estimated completion is declined at the door, before routing.
func TestDispatchDeclinesInfeasibleDeadline(t *testing.T) {
	gw, _, clk := testFleet(t, 2, NodeConfig{})
	if err := gw.OpenSession("t", "s"); err != nil {
		t.Fatal(err)
	}
	stop := clk.Drive()
	_, err := gw.Dispatch(context.Background(), Request{Tenant: "t", Session: "s"})
	stop()
	if err != nil {
		t.Fatal(err)
	}
	// The clock is stopped, so the deadline cannot expire under us:
	// it is one nanosecond out, and the timed dispatch took at least
	// the modeled op cost.
	req := Request{Tenant: "t", Session: "ghost", Deadline: clk.Now().Add(time.Nanosecond)}
	var dec *transport.Decline
	if _, err := gw.Dispatch(context.Background(), req); !errors.As(err, &dec) || dec.Reason != admission.ReasonDeadline {
		t.Fatalf("infeasible deadline: %v, want %q decline", err, admission.ReasonDeadline)
	}
}

// TestAdmissionSeries pins the gate's series names on the gateway tier
// after an admit, a decline and a release.
func TestAdmissionSeries(t *testing.T) {
	gw, _, clk := testFleet(t, 2, NodeConfig{})
	if err := gw.OpenSession("t", "s"); err != nil {
		t.Fatal(err)
	}
	stop := clk.Drive()
	_, err := gw.Dispatch(context.Background(), Request{Tenant: "t", Session: "s"})
	stop()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Dispatch(context.Background(), Request{Tenant: "t", Session: "s", Deadline: clk.Now()}); err == nil {
		t.Fatal("expired dispatch admitted")
	}
	snap := gw.cfg.Metrics.Snapshot()
	for _, s := range []struct{ name, label string }{
		{"admission_admitted_total", ""},
		{"admission_declined_total", admission.ReasonExpired},
		{"admission_inflight", ""},
		{"admission_ewma_ns", ""},
		{"admission_tenants", ""},
	} {
		if _, ok := snap.Get(serviceName, s.name, s.label); !ok {
			t.Errorf("series %s{%s} missing", s.name, s.label)
		}
	}
}

// TestKillPromotesStandby: killing a node (with no EvacuateNode call —
// the gateway discovers the death through a failed dispatch) moves every
// session it owned to that session's standby via mirror promotion:
// dispatches keep succeeding, versions continue without loss, and the
// registry shows a bumped epoch for each moved session.
func TestKillPromotesStandby(t *testing.T) {
	gw, reg, clk := testFleet(t, 4, NodeConfig{})
	const sessions = 24
	for i := 0; i < sessions; i++ {
		if err := gw.OpenSession(fmt.Sprintf("tenant-%d", i%3), fmt.Sprintf("sess-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	stop := clk.Drive()
	defer stop()
	ctx := context.Background()
	for i := 0; i < sessions; i++ {
		if _, err := gw.Dispatch(ctx, Request{Tenant: fmt.Sprintf("tenant-%d", i%3), Session: fmt.Sprintf("sess-%02d", i)}); err != nil {
			t.Fatal(err)
		}
	}

	victim := ""
	preOwner := map[string]string{}
	preStandby := map[string]string{}
	for i := 0; i < sessions; i++ {
		s := fmt.Sprintf("sess-%02d", i)
		owner, reps, _, _ := gw.Placement(s)
		preOwner[s] = owner
		if len(reps) > 0 {
			preStandby[s] = reps[0]
		}
		if victim == "" {
			victim = owner
		}
	}
	vn, _ := gw.Node(victim)
	vn.Kill()

	moved := 0
	for i := 0; i < sessions; i++ {
		s := fmt.Sprintf("sess-%02d", i)
		res, err := gw.Dispatch(ctx, Request{Tenant: fmt.Sprintf("tenant-%d", i%3), Session: s})
		if err != nil {
			t.Fatalf("dispatch %s after kill: %v", s, err)
		}
		if res.Version != 2 {
			t.Errorf("%s version %d after kill, want 2 (no ops lost)", s, res.Version)
		}
		owner, _, epoch, _ := gw.Placement(s)
		if preOwner[s] != victim {
			if owner != preOwner[s] {
				t.Errorf("%s moved %s -> %s though its owner survived", s, preOwner[s], owner)
			}
			continue
		}
		moved++
		if owner != preStandby[s] {
			t.Errorf("%s failed over to %s, standby was %s", s, owner, preStandby[s])
		}
		if epoch < 2 {
			t.Errorf("%s epoch %d after failover, want >= 2", s, epoch)
		}
		lease, _, err := reg.GetLease(LeaseServicePrefix+s, clk.Now())
		if err != nil || lease.Holder != owner || lease.Epoch != epoch {
			t.Errorf("%s lease %+v, want holder %s epoch %d", s, lease, owner, epoch)
		}
	}
	if moved == 0 {
		t.Fatal("victim owned no sessions; test proves nothing")
	}
	snap := gw.cfg.Metrics.Snapshot()
	if got := snap.CounterValue("gw", "promotions_total", ""); got < int64(moved) {
		t.Errorf("promotions_total = %d, want >= %d", got, moved)
	}
	if got := snap.CounterValue("gw", "sessions_lost_total", ""); got != 0 {
		t.Errorf("sessions_lost_total = %d, want 0", got)
	}
}

// TestNodeDownPlannedDrain: an operator-initiated EvacuateNode on a
// *live* node drains its sessions to their standbys without touching
// anyone else's placement, and the drained node no longer hosts the
// moved sessions.
func TestNodeDownPlannedDrain(t *testing.T) {
	gw, _, clk := testFleet(t, 3, NodeConfig{})
	const sessions = 18
	for i := 0; i < sessions; i++ {
		if err := gw.OpenSession("t", fmt.Sprintf("sess-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	stop := clk.Drive()
	defer stop()
	for i := 0; i < sessions; i++ {
		if _, err := gw.Dispatch(context.Background(), Request{Tenant: "t", Session: fmt.Sprintf("sess-%02d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	preOwner := map[string]string{}
	preStandby := map[string]string{}
	for i := 0; i < sessions; i++ {
		s := fmt.Sprintf("sess-%02d", i)
		owner, reps, _, _ := gw.Placement(s)
		preOwner[s] = owner
		if len(reps) > 0 {
			preStandby[s] = reps[0]
		}
	}
	victim := preOwner["sess-00"]
	if moved := gw.EvacuateNode(victim); moved == 0 {
		t.Fatalf("draining %s moved no session", victim)
	}
	vn, _ := gw.Node(victim)
	for i := 0; i < sessions; i++ {
		s := fmt.Sprintf("sess-%02d", i)
		owner, _, _, _ := gw.Placement(s)
		if preOwner[s] != victim {
			if owner != preOwner[s] {
				t.Errorf("%s moved %s -> %s during unrelated drain", s, preOwner[s], owner)
			}
			continue
		}
		if owner != preStandby[s] {
			t.Errorf("%s drained to %s, standby was %s", s, owner, preStandby[s])
		}
		if _, still := vn.Service().Session(s); still {
			t.Errorf("%s still hosted on drained node %s", s, victim)
		}
		if n, _ := gw.Node(owner); n != nil {
			if sess, ok := n.Service().Session(s); !ok || sess.Version() != 1 {
				t.Errorf("%s state not carried to %s", s, owner)
			}
		}
	}
}

// TestAddNodeRebalances: a join pulls ~1/N of the sessions onto the
// new node — and only onto it — carrying their scene state along.
func TestAddNodeRebalances(t *testing.T) {
	gw, _, clk := testFleet(t, 3, NodeConfig{})
	const sessions = 30
	for i := 0; i < sessions; i++ {
		if err := gw.OpenSession("t", fmt.Sprintf("sess-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	stop := clk.Drive()
	defer stop()
	for i := 0; i < sessions; i++ {
		if _, err := gw.Dispatch(context.Background(), Request{Tenant: "t", Session: fmt.Sprintf("sess-%02d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	preOwner := map[string]string{}
	for i := 0; i < sessions; i++ {
		s := fmt.Sprintf("sess-%02d", i)
		preOwner[s], _, _, _ = gw.Placement(s)
	}
	joiner := NewNode(NodeConfig{Name: "ds-new", Clock: clk, Metrics: gw.cfg.Metrics})
	if err := gw.AddNode(joiner); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < sessions; i++ {
		s := fmt.Sprintf("sess-%02d", i)
		owner, _, epoch, _ := gw.Placement(s)
		if owner == preOwner[s] {
			continue
		}
		moved++
		if owner != "ds-new" {
			t.Errorf("%s moved %s -> %s, not to the joiner", s, preOwner[s], owner)
		}
		if epoch < 2 {
			t.Errorf("%s epoch %d after move, want >= 2", s, epoch)
		}
		sess, ok := joiner.Service().Session(s)
		if !ok || sess.Version() != 1 {
			t.Errorf("%s state not carried to joiner (ok=%v)", s, ok)
		}
		// The moved session still dispatches fine.
		res, err := gw.Dispatch(context.Background(), Request{Tenant: "t", Session: s})
		if err != nil || res.Node != "ds-new" || res.Version != 2 {
			t.Errorf("%s dispatch after move: res=%+v err=%v", s, res, err)
		}
	}
	if moved == 0 {
		t.Error("join moved nothing; rebalance did not run")
	}
}

// TestEpochFencesDeposedNode: after a session moves, the old owner
// refuses requests stamped with any epoch (its stamp is gone), and the
// node-level check rejects mismatched epochs — the fence that makes
// split-brain impossible even if a stale route escapes the gateway.
func TestEpochFencesDeposedNode(t *testing.T) {
	gw, _, clk := testFleet(t, 2, NodeConfig{})
	if err := gw.OpenSession("t", "s"); err != nil {
		t.Fatal(err)
	}
	owner, replicas, epoch, _ := gw.Placement("s")
	if len(replicas) == 0 {
		t.Fatal("two-node fleet must have a standby replica")
	}
	standby := replicas[0]
	stop := clk.Drive()
	defer stop()
	old, _ := gw.Node(owner)
	gw.EvacuateNode(owner) // planned move to the standby
	newOwner, _, newEpoch, _ := gw.Placement("s")
	if newOwner != standby || newEpoch <= epoch {
		t.Fatalf("move: owner %s epoch %d -> owner %s epoch %d", owner, epoch, newOwner, newEpoch)
	}
	if _, err := old.ApplyLoadOp("s", epoch); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("deposed node served old epoch: %v", err)
	}
	nn, _ := gw.Node(newOwner)
	if _, err := nn.ApplyLoadOp("s", epoch); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("new owner served stale epoch: %v", err)
	}
	if _, err := nn.ApplyLoadOp("s", newEpoch); err != nil {
		t.Errorf("new owner refused current epoch: %v", err)
	}
}

// TestReplicationLagIsEachNodesWorstCopy: a node's replication_lag gauge
// reads the largest lag among the copies it holds, not the lag of
// whichever of its sessions the rebalance pass visited last.
func TestReplicationLagIsEachNodesWorstCopy(t *testing.T) {
	gw, _, _ := testFleet(t, 2, NodeConfig{})
	// Two nodes at factor 1: each session's one copy is on the node that
	// does not own it. Open sessions until two share an owner, so their
	// copies share a holder.
	byOwner := map[string]string{}
	var first, second string
	for i := 0; second == ""; i++ {
		s := fmt.Sprintf("s%d", i)
		if err := gw.OpenSession("t", s); err != nil {
			t.Fatal(err)
		}
		owner, _, _, _ := gw.Placement(s)
		if prior, ok := byOwner[owner]; ok {
			first, second = prior, s
		}
		byOwner[owner] = s
	}
	owner, replicas, _, _ := gw.Placement(first)
	holder := replicas[0]
	// Fail the copy of the session the rebalance visits first (sessions
	// are visited in name order): a writable backup refuses what its
	// primary replicates.
	hn, _ := gw.Node(holder)
	copyOf, _ := hn.Service().Session(first)
	copyOf.SetReadOnly(false)
	on, _ := gw.Node(owner)
	primary, _ := on.Service().Session(first)
	_ = primary.ApplyUpdate(&scene.SetNameOp{ID: scene.RootID, Name: "renamed"}, "")
	if acked := gw.ReplicaAcks(first)[holder]; acked != 0 {
		t.Fatalf("copy of %s on %s acks %d, want a failed copy's 0", first, holder, acked)
	}
	caughtUp, _ := on.Service().Session(second)
	if acked := gw.ReplicaAcks(second)[holder]; acked != caughtUp.Version() {
		t.Fatalf("copy of %s on %s acks %d, want the caught-up %d", second, holder, acked, caughtUp.Version())
	}

	gw.TopologyChanged()
	m, ok := gw.cfg.Metrics.Snapshot().Get("gw", "replication_lag", telemetry.PeerLabel(holder))
	if !ok || m.Value != int64(primary.Version()) {
		t.Errorf("replication_lag{%s} = %d (ok=%v), want %d: %s's failed copy, not %s's caught-up one",
			holder, m.Value, ok, primary.Version(), first, second)
	}
}
