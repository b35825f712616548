package gateway

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/dataservice"
	"repro/internal/dataservice/wal"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/uddi"
	"repro/internal/vclock"
)

// journalFleet builds a gateway over n journal-backed nodes: each node
// commits its primaries' ops through a FaultStore sharing one per-node
// fault plan, so SickNow on a plan poisons every journal on that node —
// the whole-disk failure the evacuation machinery exists for.
func journalFleet(t *testing.T, n, factor int) (*Gateway, *telemetry.Registry, *vclock.Virtual, map[string]*wal.StoreFaults) {
	t.Helper()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	reg := uddi.NewRegistry()
	met := telemetry.NewRegistry(clk)
	gw, err := New(Config{Clock: clk, Leases: reg, Metrics: met, ReplicationFactor: factor})
	if err != nil {
		t.Fatal(err)
	}
	plans := map[string]*wal.StoreFaults{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("ds-%d", i)
		plan := wal.NewStoreFaults(uint64(1000 + i))
		plans[name] = plan
		node := NewNode(NodeConfig{
			Name: name, Clock: clk, Metrics: met,
			Journal: func(string) wal.Store { return wal.NewFaultStore(wal.NewMemStore(), plan) },
		})
		if err := gw.AddNode(node); err != nil {
			t.Fatal(err)
		}
	}
	return gw, met, clk, plans
}

// mutateAll dispatches one mutation per session, failing the test on
// any client-visible error, and returns each session's result version.
func mutateAll(t *testing.T, gw *Gateway, sessions []string) map[string]uint64 {
	t.Helper()
	versions := map[string]uint64{}
	for _, s := range sessions {
		res, err := gw.Dispatch(context.Background(), Request{Tenant: "t", Session: s, Kind: KindMutate})
		if err != nil {
			t.Fatalf("mutate %s: %v", s, err)
		}
		versions[s] = res.Version
	}
	return versions
}

// TestSickDiskEvacuation: mid-run, one node's disk goes sick. Every
// subsequent client request still succeeds — the gateway latches the
// node storage-degraded off the first failed commit, evacuates its
// sessions onto healthy replicas, and retries. Afterwards the sick node
// owns nothing, holds no replicas, and every session is back at full
// replication factor on healthy disks.
func TestSickDiskEvacuation(t *testing.T) {
	gw, met, clk, plans := journalFleet(t, 4, 2)
	stop := pace(clk)
	defer stop()

	var sessions []string
	for i := 0; i < 12; i++ {
		s := fmt.Sprintf("sess-%02d", i)
		sessions = append(sessions, s)
		if err := gw.OpenSession("t", s); err != nil {
			t.Fatal(err)
		}
	}
	mutateAll(t, gw, sessions)

	victim := ""
	owned := map[string]int{}
	for _, owner := range gw.Placements() {
		owned[owner]++
		if owned[owner] > owned[victim] {
			victim = owner
		}
	}
	plans[victim].SickNow()

	// Every session mutates again — including the victim's, whose first
	// attempt trips the sick disk. Zero client-visible errors, and every
	// version advances exactly once (the phantom op the sick owner
	// applied to its own memory is never served).
	after := mutateAll(t, gw, sessions)
	for s, v := range after {
		if v != 2 {
			t.Errorf("session %s at version %d after two mutates, want exactly 2", s, v)
		}
	}

	vnode, _ := gw.Node(victim)
	if !vnode.StorageDegraded() {
		t.Fatalf("victim %s never latched storage-degraded", victim)
	}
	for s, owner := range gw.Placements() {
		if owner == victim {
			t.Errorf("session %s still owned by sick node %s", s, victim)
		}
	}
	for _, s := range sessions {
		_, replicas, _, ok := gw.Placement(s)
		if !ok {
			t.Fatalf("session %s lost its placement", s)
		}
		for _, r := range replicas {
			if r == victim {
				t.Errorf("session %s keeps a replica on sick node %s", s, victim)
			}
		}
		if len(replicas) != 2 {
			t.Errorf("session %s at %d replicas after evacuation, want factor 2", s, len(replicas))
		}
	}
	snap := met.Snapshot()
	if n := snap.CounterValue("gw", "sessions_evacuated_total", ""); n < int64(owned[victim]) {
		t.Errorf("sessions_evacuated_total = %d, want >= %d (the victim's sessions)", n, owned[victim])
	}
	if m, ok := snap.Get("gw", "storage_degraded", telemetry.PeerLabel(victim)); !ok || m.Value != 1 {
		t.Errorf("storage_degraded gauge for %s not raised: %+v ok=%v", victim, m, ok)
	}
	if n := snap.CounterValue("gw", "sessions_lost_total", ""); n != 0 {
		t.Errorf("%d sessions lost state during evacuation, want 0", n)
	}
}

// TestEvacuatedNodeStaysOffRingAcrossTopologyEvents: ring membership
// has one rule, so a topology event cannot undo an evacuation. With
// membership restated per call site, TopologyChanged re-added the sick
// node (servable, though not placeable): every later rebalance then
// tried and refused to move its share of the sessions back, and every
// new session that hashed there was refused.
func TestEvacuatedNodeStaysOffRingAcrossTopologyEvents(t *testing.T) {
	gw, met, clk, plans := journalFleet(t, 4, 2)
	stop := pace(clk)
	defer stop()

	var sessions []string
	for i := 0; i < 12; i++ {
		s := fmt.Sprintf("sess-%02d", i)
		sessions = append(sessions, s)
		if err := gw.OpenSession("t", s); err != nil {
			t.Fatal(err)
		}
	}
	victim, owned := "", map[string]int{}
	for _, owner := range gw.Placements() {
		owned[owner]++
		if owned[owner] > owned[victim] || (owned[owner] == owned[victim] && owner < victim) {
			victim = owner
		}
	}
	plans[victim].SickNow()
	mutateAll(t, gw, sessions)

	gw.TopologyChanged()
	gw.TopologyChanged()

	if gw.ring.Has(victim) {
		t.Errorf("evacuated node %s is back on the ring after a topology event", victim)
	}
	if n := met.Snapshot().CounterValue("gw", "rebalance_errors_total", ""); n != 0 {
		t.Errorf("rebalance_errors_total = %d, want 0: the gateway refused moves its own ring asked for", n)
	}
	for i := 0; i < 40; i++ {
		s := fmt.Sprintf("fresh-%02d", i)
		if err := gw.OpenSession("t", s); err != nil {
			t.Errorf("OpenSession(%s): %v", s, err)
		}
	}
	for s, v := range mutateAll(t, gw, sessions) {
		if v != 2 {
			t.Errorf("session %s at version %d after two mutates, want exactly 2", s, v)
		}
		if owner, _, _, _ := gw.Placement(s); owner == victim {
			t.Errorf("session %s is back on sick node %s", s, victim)
		}
	}
}

// TestDegradedOwnerPromotesAckedPrefix: the op in flight when the disk
// goes sick reaches the owner's memory but is never acked or fanned
// out. Evacuation must promote the replica's acked prefix — not adopt
// the owner's phantom — and the client's retry then commits the op
// exactly once on the successor.
func TestDegradedOwnerPromotesAckedPrefix(t *testing.T) {
	gw, _, clk, plans := journalFleet(t, 2, 1)
	stop := pace(clk)
	defer stop()
	if err := gw.OpenSession("t", "phantom"); err != nil {
		t.Fatal(err)
	}
	if _, err := gw.Dispatch(context.Background(), Request{Tenant: "t", Session: "phantom"}); err != nil {
		t.Fatal(err)
	}
	owner, _, epoch, _ := gw.Placement("phantom")
	ownerNode, _ := gw.Node(owner)
	plans[owner].SickNow()

	// Hit the node directly (below the gateway's retry loop) to observe
	// the raw fault and the phantom it leaves behind.
	_, err := ownerNode.ApplyLoadOp("phantom", epoch)
	if !errors.Is(err, ErrStorageDegraded) {
		t.Fatalf("sick-disk apply = %v, want ErrStorageDegraded", err)
	}
	ownerSess, _ := ownerNode.Service().Session("phantom")
	if ownerSess.Version() != 2 {
		t.Fatalf("owner memory at version %d, want the phantom at 2", ownerSess.Version())
	}

	if moved := gw.EvacuateNode(owner); moved != 1 {
		t.Fatalf("EvacuateNode moved %d sessions, want 1", moved)
	}
	newOwner, _, _, _ := gw.Placement("phantom")
	if newOwner == owner {
		t.Fatalf("session still on sick node %s", owner)
	}
	newNode, _ := gw.Node(newOwner)
	sess, ok := newNode.Service().Session("phantom")
	if !ok {
		t.Fatal("session missing on promoted successor")
	}
	if sess.Version() != 1 {
		t.Fatalf("successor at version %d, want the acked prefix 1 (no phantom)", sess.Version())
	}
	if _, ok := ownerNode.Service().Session("phantom"); ok {
		t.Error("sick node still resolves the evacuated session")
	}
	// The retry path: the client re-issues and the op commits once,
	// durably, on the successor's fresh journal.
	res, err := gw.Dispatch(context.Background(), Request{Tenant: "t", Session: "phantom"})
	if err != nil || res.Version != 2 {
		t.Fatalf("retry on successor: version %d err %v, want 2 nil", res.Version, err)
	}
	if jv := sess.JournalVersion(); jv != 2 {
		t.Errorf("successor journal at %d, want 2 (journaling resumed on promotion)", jv)
	}
	// Idempotent: the node is already drained.
	if moved := gw.EvacuateNode(owner); moved != 0 {
		t.Errorf("second evacuation moved %d sessions, want 0", moved)
	}
}

// deafSubscriber fails every delivery, the way a killed pipe or an
// already-promoted mirror does.
type deafSubscriber struct{}

func (deafSubscriber) SendUpdate(dataservice.Update) error    { return errors.New("closed pipe") }
func (deafSubscriber) SendCamera(transport.CameraState) error { return nil }

// TestApplyLoadOpCommittedDespiteFanoutError: an op that is applied,
// journalled and versioned is a success for its author even when a
// subscriber could not be told — the subscriber's follower resumes on
// its own — and the miss is counted per peer. A journal fault, where
// the op is not committed, still surfaces.
func TestApplyLoadOpCommittedDespiteFanoutError(t *testing.T) {
	met := telemetry.NewRegistry(vclock.Real{})
	plan := wal.NewStoreFaults(1)
	node := NewNode(NodeConfig{Name: "ds-0", Metrics: met, OpCost: time.Nanosecond})
	sess, err := node.Service().CreateSession("s")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.StartJournal(wal.NewFaultStore(wal.NewMemStore(), plan), 0); err != nil {
		t.Fatal(err)
	}
	node.StampEpoch("s", 1)
	if _, err := sess.Subscribe("watcher", deafSubscriber{}); err != nil {
		t.Fatal(err)
	}

	version, err := node.ApplyLoadOp("s", 1)
	if err != nil || version != 1 {
		t.Fatalf("ApplyLoadOp = (%d, %v), want the committed version 1 and no error", version, err)
	}
	if sess.Version() != 1 || sess.JournalVersion() != 1 {
		t.Errorf("session at %d, journal at %d, want both 1", sess.Version(), sess.JournalVersion())
	}
	if n := met.Snapshot().CounterValue("ds-0", "fanout_errors_total", telemetry.PeerLabel("watcher")); n != 1 {
		t.Errorf("fanout_errors_total{watcher} = %d, want 1", n)
	}

	plan.SickNow()
	if _, err := node.ApplyLoadOp("s", 1); !errors.Is(err, ErrStorageDegraded) {
		t.Errorf("sick-disk apply = %v, want ErrStorageDegraded", err)
	}
}

// TestSyncStorageHealth: the sweep drains latched-degraded nodes that
// dispatch traffic has not yet tripped on, and new sessions refuse to
// land on a ring whose owner cannot commit.
func TestSyncStorageHealth(t *testing.T) {
	gw, _, clk, _ := journalFleet(t, 3, 1)
	stop := pace(clk)
	defer stop()
	for i := 0; i < 9; i++ {
		if err := gw.OpenSession("t", fmt.Sprintf("s-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	victim := ""
	for _, owner := range gw.Placements() {
		victim = owner
		break
	}
	vnode, _ := gw.Node(victim)
	vnode.markStorageDegraded()

	drained := gw.SyncStorageHealth()
	if len(drained) != 1 || drained[0] != victim {
		t.Fatalf("drained = %v, want [%s]", drained, victim)
	}
	for s, owner := range gw.Placements() {
		if owner == victim {
			t.Errorf("session %s still on degraded node after sweep", s)
		}
	}
	if again := gw.SyncStorageHealth(); len(again) != 0 {
		t.Errorf("second sweep drained %v, want nothing", again)
	}
}

// TestOpenSessionRefusesDegradedRing: a fleet whose only node cannot
// commit refuses new sessions outright instead of placing them on a
// disk that will eat their first write.
func TestOpenSessionRefusesDegradedRing(t *testing.T) {
	gw, _, _, _ := journalFleet(t, 1, 1)
	n, _ := gw.Node("ds-0")
	n.markStorageDegraded()
	if err := gw.OpenSession("t", "doomed"); err == nil {
		t.Fatal("session placed on a storage-degraded ring owner")
	}
}
