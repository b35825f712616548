package gateway

import (
	"slices"
	"testing"
)

// The three decision tables of DESIGN.md "Gateway & sharding", row for
// row: no fleet, no clock, no lock.

func up(name, region string) nodeFacts {
	return nodeFacts{name: name, region: region, alive: true, reachable: true}
}

func TestRingMemberTable(t *testing.T) {
	for _, tc := range []struct {
		name                                string
		alive, reachable, degraded, drained bool
		servable, placeable, member         bool
	}{
		{"healthy", true, true, false, false, true, true, true},
		{"dead", false, true, false, false, false, false, false},
		{"partitioned", true, false, false, false, false, false, false},
		{"sick disk", true, true, true, false, true, false, false},
		{"drained", true, true, false, true, true, true, false},
		{"drained and sick", true, true, true, true, true, false, false},
		{"dead behind a partition", false, false, false, false, false, false, false},
		{"never joined", false, false, false, false, false, false, false},
	} {
		f := nodeFacts{name: "n", alive: tc.alive, reachable: tc.reachable, degraded: tc.degraded, drained: tc.drained}
		if got := [3]bool{f.servable(), f.placeable(), f.ringMember()}; got != [3]bool{tc.servable, tc.placeable, tc.member} {
			t.Errorf("%s: servable/placeable/member = %v, want %v", tc.name, got, [3]bool{tc.servable, tc.placeable, tc.member})
		}
	}
}

func TestHandoffSourceTable(t *testing.T) {
	healthy := up("old", "eu")
	degraded := healthy
	degraded.degraded = true
	dead := nodeFacts{name: "old", region: "eu"}
	cut := nodeFacts{name: "old", region: "eu", alive: true}
	for _, tc := range []struct {
		name       string
		hasReplica bool
		owner      nodeFacts
		survivor   string
		from       string
		mirror     bool
	}{
		{"target holds a replica, owner dead: promote it", true, dead, "new", "new", true},
		{"target holds a replica but the owner is healthy: still promote the target's", true, healthy, "new", "new", true},
		{"planned move off a healthy owner", false, healthy, "r1", "old", false},
		{"healthy owner, replication never seeded", false, healthy, "", "old", false},
		{"owner dead, target holds nothing: best surviving replica", false, dead, "r1", "r1", true},
		{"owner partitioned away: same as dead", false, cut, "r1", "r1", true},
		{"degraded owner with a live replica picks the replica", false, degraded, "r1", "r1", true},
		{"degraded owner, no replica survives: its memory, phantom and all", false, degraded, "", "old", false},
		{"all replicas unservable and owner dead: lost", false, dead, "", "", false},
	} {
		from, mirror := handoffSource("new", tc.hasReplica, tc.owner, tc.survivor)
		if from != tc.from || mirror != tc.mirror {
			t.Errorf("%s: source (%q, mirror %v), want (%q, mirror %v)", tc.name, from, mirror, tc.from, tc.mirror)
		}
	}
}

func TestReplicaTargetsTable(t *testing.T) {
	sick := up("c", "")
	sick.degraded = true
	gone := nodeFacts{name: "c", region: ""}
	for _, tc := range []struct {
		name   string
		factor int
		owner  nodeFacts
		walk   []nodeFacts
		want   []string
	}{
		{"flat fleet: the plain successor walk", 2, up("a", ""),
			[]nodeFacts{up("b", ""), up("c", ""), up("d", "")}, []string{"b", "c"}},
		{"the owner is never its own replica", 2, up("b", ""),
			[]nodeFacts{up("b", ""), up("c", ""), up("d", "")}, []string{"c", "d"}},
		{"two regions, all successors abroad first: one in-region pick is forced", 2, up("a", "eu"),
			[]nodeFacts{up("u1", "us"), up("u2", "us"), up("e1", "eu")}, []string{"e1", "u1"}},
		{"two regions, all successors at home first: one out-of-region pick is forced", 2, up("a", "eu"),
			[]nodeFacts{up("e1", "eu"), up("e2", "eu"), up("u1", "us")}, []string{"e1", "u1"}},
		{"factor 3 keeps the forced pair and fills in walk order", 3, up("a", "eu"),
			[]nodeFacts{up("u1", "us"), up("u2", "us"), up("e1", "eu"), up("e2", "eu")}, []string{"e1", "u1", "u2"}},
		{"factor 1 with both regions on offer stays at home", 1, up("a", "eu"),
			[]nodeFacts{up("u1", "us"), up("e1", "eu")}, []string{"e1"}},
		{"a degraded successor is skipped", 2, up("a", ""),
			[]nodeFacts{up("b", ""), sick, up("d", "")}, []string{"b", "d"}},
		{"a dead successor is skipped", 1, up("a", ""),
			[]nodeFacts{gone, up("d", "")}, []string{"d"}},
		{"fewer candidates than the factor: all of them, in walk order", 3, up("a", "eu"),
			[]nodeFacts{up("u1", "us"), up("e1", "eu")}, []string{"u1", "e1"}},
		{"nobody to replicate onto", 2, up("a", ""), nil, []string{}},
	} {
		if got := replicaTargets(tc.factor, tc.owner, tc.walk); !slices.Equal(got, tc.want) {
			t.Errorf("%s: targets %v, want %v", tc.name, got, tc.want)
		}
	}
}
