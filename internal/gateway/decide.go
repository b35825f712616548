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
	drained      bool // EvacuateNode named it (latched)
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

// replicaFacts is what the gateway knows about one attached replica: the
// node holding it, the version it has applied through, and whether its
// replication stream failed (a failed copy cannot be trusted to be the
// prefix it reports).
type replicaFacts struct {
	holder nodeFacts
	acked  uint64
	failed bool
}

// bestReplica picks the promotion target among copies, in attach order,
// whose holder ok accepts: the most caught-up copy wins, a holder in the
// prefer region breaks version ties, and attach order breaks the rest —
// so a flat fleet promotes its first-attached (ring successor) replica.
// A failed copy is never picked. "" when no copy qualifies.
func bestReplica(prefer string, copies []replicaFacts, ok func(nodeFacts) bool) string {
	best, bestVer, bestMatch := "", uint64(0), false
	for _, c := range copies {
		if c.failed || !ok(c.holder) {
			continue
		}
		match := !netsim.CrossRegion(prefer, c.holder.region)
		if best == "" || c.acked > bestVer || c.acked == bestVer && match && !bestMatch {
			best, bestVer, bestMatch = c.holder.name, c.acked, match
		}
	}
	return best
}

// desiredOwner decides who should own a session whose ring owner is
// ring and whose recorded owner is owner: the ring owner, unless the
// recorded owner is not servable and one of its copies sits on a
// placeable node — then the best such copy, the lost owner's region
// breaking ties. Placeable, not merely servable: a sick-disk holder can
// donate its copy but must not become primary for new writes. On a flat
// fleet the two answers coincide, because replicas sit at ring
// successors and stay caught up.
func desiredOwner(ring string, owner nodeFacts, copies []replicaFacts) string {
	if owner.servable() {
		return ring
	}
	if best := bestReplica(owner.region, copies, nodeFacts.placeable); best != "" {
		return best
	}
	return ring
}

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
