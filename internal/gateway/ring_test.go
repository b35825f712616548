package gateway

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/balance"
)

// sessionNames draws n random session names from a seeded source (no
// math/rand globals), so the properties under test are those of the
// placement hash, not of a structured naming scheme.
func sessionNames(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("sess-%016x", rng.Uint64())
	}
	return out
}

func ringWith(members ...string) *Ring {
	r := NewRing(0)
	for _, m := range members {
		r.Add(m)
	}
	return r
}

func nodeNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("ds-%02d", i)
	}
	return out
}

// TestRingDistributionBalanced: placement property 1 — session load is
// balanced across the fleet. The worst node's deviation from the mean
// (balance.Imbalance) stays within 20% for fleets of 4-16 nodes.
func TestRingDistributionBalanced(t *testing.T) {
	cases := []struct {
		nodes    int
		sessions int
		seed     int64
	}{
		{nodes: 4, sessions: 4000, seed: 1},
		{nodes: 8, sessions: 4000, seed: 2},
		{nodes: 12, sessions: 6000, seed: 3},
		{nodes: 16, sessions: 8000, seed: 4},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n%d_s%d", tc.nodes, tc.sessions), func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			ring := ringWith(nodeNames(tc.nodes)...)
			counts := map[string]int{}
			for _, s := range sessionNames(rng, tc.sessions) {
				owner, ok := ring.Owner(s)
				if !ok {
					t.Fatalf("no owner for %s", s)
				}
				counts[owner]++
			}
			if len(counts) != tc.nodes {
				t.Fatalf("only %d of %d nodes own sessions", len(counts), tc.nodes)
			}
			if imb := balance.Imbalance(counts); imb > 0.20 {
				t.Errorf("imbalance %.3f > 0.20 (counts %v)", imb, counts)
			}
		})
	}
}

// TestRingMembershipChangeMovesOneNth: placement property 2 — a
// membership change relocates only ~1/N of the sessions, and every
// relocation involves the changed node (joins pull sessions only onto
// the joiner; no session ever moves between two unchanged nodes).
func TestRingMembershipChangeMovesOneNth(t *testing.T) {
	cases := []struct {
		nodes    int
		sessions int
		seed     int64
	}{
		{nodes: 4, sessions: 4000, seed: 11},
		{nodes: 8, sessions: 4000, seed: 12},
		{nodes: 16, sessions: 8000, seed: 13},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n%d", tc.nodes), func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			sessions := sessionNames(rng, tc.sessions)
			ring := ringWith(nodeNames(tc.nodes)...)
			before := map[string]string{}
			for _, s := range sessions {
				before[s], _ = ring.Owner(s)
			}

			// Join: moved sessions land only on the joiner, and their
			// count is ~1/(N+1) of the total (within a 2x band — vnode
			// placement is random-like, not exact).
			ring.Add("ds-new")
			moved := 0
			for _, s := range sessions {
				after, _ := ring.Owner(s)
				if after == before[s] {
					continue
				}
				moved++
				if after != "ds-new" {
					t.Fatalf("session %s moved %s -> %s, not to the joiner", s, before[s], after)
				}
			}
			ideal := float64(tc.sessions) / float64(tc.nodes+1)
			if f := float64(moved); f < 0.5*ideal || f > 2.0*ideal {
				t.Errorf("join moved %d sessions, want ~%.0f (1/N of %d)", moved, ideal, tc.sessions)
			}

			// Leave: removing the joiner again restores the original
			// placement exactly — only the leaver's sessions move.
			ring.Remove("ds-new")
			for _, s := range sessions {
				if after, _ := ring.Owner(s); after != before[s] {
					t.Fatalf("session %s at %s after join+leave, was %s", s, after, before[s])
				}
			}
		})
	}
}

// TestRingStandbyIsFailoverTarget: the invariant the gateway's mirror
// placement rests on — a session's standby (next distinct member
// clockwise) is exactly the node that inherits it when the owner is
// removed. This is why promotion is always local: the mirror already
// lives where consistent hashing sends the session.
func TestRingStandbyIsFailoverTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	members := nodeNames(6)
	sessions := sessionNames(rng, 2000)
	ring := ringWith(members...)

	owners := map[string]string{}
	standbys := map[string]string{}
	for _, s := range sessions {
		o, st, ok := ring.OwnerAndStandby(s)
		if !ok || st == "" || st == o {
			t.Fatalf("session %s: owner %q standby %q ok=%v", s, o, st, ok)
		}
		owners[s], standbys[s] = o, st
	}
	for _, victim := range members {
		reduced := ringWith(members...)
		reduced.Remove(victim)
		for _, s := range sessions {
			if owners[s] != victim {
				continue
			}
			if after, _ := reduced.Owner(s); after != standbys[s] {
				t.Fatalf("session %s: owner %s removed, moved to %s, standby was %s",
					s, victim, after, standbys[s])
			}
		}
	}
}

// TestRingEdgeCases: empty and single-member rings.
func TestRingEdgeCases(t *testing.T) {
	r := NewRing(0)
	if _, ok := r.Owner("s"); ok {
		t.Error("empty ring claimed an owner")
	}
	r.Add("only")
	owner, standby, ok := r.OwnerAndStandby("s")
	if !ok || owner != "only" || standby != "" {
		t.Errorf("single-member ring: owner %q standby %q ok=%v", owner, standby, ok)
	}
	r.Add("only") // idempotent
	if got := len(r.Members()); got != 1 {
		t.Errorf("re-adding a member grew the ring to %d", got)
	}
	r.Remove("absent") // idempotent
	if got := r.Members(); len(got) != 1 || got[0] != "only" {
		t.Errorf("members = %v", got)
	}
}
