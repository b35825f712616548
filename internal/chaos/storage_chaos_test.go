package chaos

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/loadgen"
)

// TestSickDiskEvacuationUnderLoad is the storage tier's headline chaos
// scenario: a raveload fleet runs its open-loop population while the
// most-loaded node's disk is poisoned mid-run, telling nobody. Unlike a
// kill, the victim stays alive the whole time — its memory is intact
// and its acked prefix is a legitimate donor — but it can no longer
// commit, so the first journal fault must latch it storage-degraded and
// the gateway must drain it through the lease-transfer machinery. The
// run must end with:
//
//   - zero client-visible errors (the phantom op a failed commit leaves
//     in the victim's memory is never served, and the retried request
//     commits exactly once on the successor — Results.Check plus the
//     per-session durability sweep below);
//   - the victim alive but degraded, owning nothing and backing no
//     replica (a sick disk is not a crash: serving continues during the
//     drain, placement never returns);
//   - every session's primary fully durable: the owner's journal at the
//     exact version its memory is at, and no surviving replica ahead of
//     its primary (most-caught-up-wins, the same rule the kill scenario
//     enforces);
//   - lease epochs monotonic: strictly bumped exactly for the sessions
//     that moved off the sick disk, untouched for bystanders.
func TestSickDiskEvacuationUnderLoad(t *testing.T) {
	sc := loadgen.Scenario{
		Nodes:      4,
		Sessions:   48,
		Tenants:    4,
		Duration:   3 * time.Second,
		Replicas:   2,
		SickDiskAt: 1500 * time.Millisecond,
		Seed:       11,
	}
	f, err := loadgen.BuildFleet(sc)
	if err != nil {
		t.Fatal(err)
	}
	clk := f.Clock
	g := f.Gateway

	placements := g.Placements()
	sessions := make([]string, 0, len(placements))
	for s := range placements {
		sessions = append(sessions, s)
	}
	sort.Strings(sessions)
	preEpoch := make(map[string]uint64, len(sessions))
	for _, s := range sessions {
		l, _, err := f.Registry.GetLease(gateway.LeaseServicePrefix+s, clk.Now())
		if err != nil || l.Epoch == 0 {
			t.Fatalf("pre-run lease for %s: %+v, %v", s, l, err)
		}
		preEpoch[s] = l.Epoch
	}

	rep := loadgen.NewReporter()
	f.Run(context.Background(), rep)

	art := f.Artifact(rep)
	res := art.Results
	if err := res.Check(f.Scenario); err != nil {
		t.Fatalf("client-visible damage under the sick disk: %v", err)
	}
	if art.SickDisk == nil || art.SickDisk.Node == "" {
		t.Fatalf("scenario never poisoned a disk: %+v", art.SickDisk)
	}
	sick := art.SickDisk.Node
	if res.SessionsEvacuated == 0 {
		t.Fatalf("sick disk drained no sessions: %+v", res)
	}
	if res.DispatchRetries == 0 {
		t.Error("no dispatch retries; the degraded disk was never tripped on mid-request")
	}

	// The victim is alive-but-degraded — the whole point of the scenario
	// is that this is not a crash.
	var victim *gateway.Node
	for _, n := range f.Nodes {
		if n.Name() == sick {
			victim = n
		}
	}
	if victim == nil {
		t.Fatalf("sick node %s not in the fleet", sick)
	}
	if !victim.Alive() {
		t.Errorf("sick node %s died; a storage fault must leave the process serving", sick)
	}
	if !victim.StorageDegraded() {
		t.Errorf("sick node %s never latched storage-degraded", sick)
	}

	// Fully drained: the sick disk owns nothing and backs no replica.
	moved, stayed := 0, 0
	for _, s := range sessions {
		owner, replicas, gwEpoch, ok := g.Placement(s)
		if !ok {
			t.Fatalf("session %s lost its placement", s)
		}
		if owner == sick {
			t.Errorf("session %s still owned by the sick disk", s)
		}
		for _, r := range replicas {
			if r == sick {
				t.Errorf("session %s still keeps a replica on the sick disk — re-replication must land on healthy nodes", s)
			}
		}

		// Durability restored: the owner's journal sits at exactly the
		// version its memory serves. A lagging journal would mean acked
		// ops that cannot survive a crash; a leading one is impossible
		// (the journal is written after apply, never ahead of it).
		node, ok := g.Node(owner)
		if !ok {
			t.Fatalf("owner %s of %s not registered", owner, s)
		}
		sess, ok := node.Service().Session(s)
		if !ok {
			t.Fatalf("owner %s does not hold session %s", owner, s)
		}
		if jv, v := sess.JournalVersion(), sess.Version(); jv != v {
			t.Errorf("session %s: journal at %d but memory at %d — acked ops are not durable", s, jv, v)
		}
		// Most-caught-up-wins: no surviving replica ahead of its primary.
		for name, acked := range g.ReplicaAcks(s) {
			if acked > sess.Version() {
				t.Errorf("session %s: replica %s acked %d but the primary is at %d", s, name, acked, sess.Version())
			}
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
			if placements[s] != sick {
				t.Errorf("session %s moved %s → %s but its old owner was never sick", s, placements[s], owner)
			}
			if l.Epoch <= preEpoch[s] {
				t.Errorf("session %s moved %s → %s without an epoch bump (%d → %d)", s, placements[s], owner, preEpoch[s], l.Epoch)
			}
		}
	}
	if moved == 0 || stayed == 0 {
		t.Errorf("evacuation moved %d and left %d sessions; want both populations exercised", moved, stayed)
	}
	if int64(moved) > res.SessionsEvacuated {
		t.Errorf("%d sessions changed owner but only %d were counted evacuated", moved, res.SessionsEvacuated)
	}
	t.Logf("sick disk %s drained %d sessions (epoch-bumped), left %d in place; %d evacuated, %d retries, zero errors",
		sick, moved, stayed, res.SessionsEvacuated, res.DispatchRetries)
}
