package gateway

import (
	"slices"

	"repro/internal/netsim"
)

// This file is every placement decision the gateway makes, each stated
// once as a function of plain values; gateway.go gathers the facts under
// g.mu, asks, and applies the answer. nodeFacts is what the gateway
// knows about one joined node at the moment it decides. The zero value
// (a name nobody joined under) is dead: not servable, not placeable,
// not a ring member.
type nodeFacts struct {
	name, region string
	alive        bool // not killed
	reachable    bool // on the gateway's side of any partition
	degraded     bool // its journal has faulted (latched)
	drained      bool // NodeDown or EvacuateNode named it (latched)
}

// servable: the node can answer requests and donate the copies it
// holds. An unreachable node is handled exactly like a dead one — the
// difference only matters at heal time, when its state is still there
// to resume from.
func (f nodeFacts) servable() bool { return f.alive && f.reachable }

// placeable: the node may receive new work. A sick-disk node stays
// servable (its memory answers frames, its copies are promotion
// sources) but is never placeable: no new primary and no new replica
// lands on a disk that cannot commit.
func (f nodeFacts) placeable() bool { return f.servable() && !f.degraded }

// ringMember is the one membership rule: a joined node is on the
// placement ring iff it is placeable and has not been drained. All four
// facts are re-read on every sync, so a partitioned node rejoins when
// the partition heals; a degraded or drained one never does, because
// nothing clears those two facts.
func (f nodeFacts) ringMember() bool { return f.placeable() && !f.drained }

// handoffSource decides where a session moving to node `to` takes its
// state from. hasReplica says the target already holds one of the
// session's replicas; survivor names the best replica on a servable
// node ("" when none survives). In order:
//
//  1. the target's own replica — promoting it keeps the op-history ring
//     it built while mirroring, so subscribers resume gap-only;
//  2. a placeable old owner's live session (a planned move);
//  3. the best surviving replica — its acked prefix beats a degraded
//     owner's memory, which may hold a phantom op applied the instant
//     the journal faulted and never acked or fanned out;
//  4. a servable but degraded old owner's memory (better a phantom than
//     an empty scene);
//  5. nothing: from is "" and the session reopens empty, counted lost.
//
// mirror reports that from holds a replica to promote rather than the
// owner's own session.
func handoffSource(to string, hasReplica bool, owner nodeFacts, survivor string) (from string, mirror bool) {
	switch {
	case hasReplica:
		return to, true
	case owner.placeable():
		return owner.name, false
	case survivor != "":
		return survivor, true
	case owner.servable():
		return owner.name, false
	}
	return "", false
}

// replicaTargets picks a session's desired replica holders from walk,
// its ring successors in ring order: the first factor placeable nodes
// other than the owner, with region spread forced when the fleet has
// regions — the walk's first candidate in the owner's region and its
// first candidate outside it always make the cut (when they exist), so
// a session survives both a node loss and a whole-region loss. On a
// flat fleet this is the plain successor walk. Placeable, not just
// servable: re-replication after an evacuation must restore the factor
// on disks that can keep the copies.
func replicaTargets(factor int, owner nodeFacts, walk []nodeFacts) []string {
	var cands []nodeFacts
	for _, c := range walk {
		if c.name != owner.name && c.placeable() {
			cands = append(cands, c)
		}
	}
	picked := make([]string, 0, factor)
	pick := func(name string) {
		if len(picked) < factor && !slices.Contains(picked, name) {
			picked = append(picked, name)
		}
	}
	if len(cands) > factor { // a choice to make: the spread comes first
		for _, cross := range []bool{false, true} {
			if i := slices.IndexFunc(cands, func(c nodeFacts) bool {
				return netsim.CrossRegion(owner.region, c.region) == cross
			}); i >= 0 {
				pick(cands[i].name)
			}
		}
	}
	for _, c := range cands {
		pick(c.name)
	}
	return picked
}
