package dataservice

import (
	"repro/internal/scene"
)

// Interest filtering (§3.2.5): under dataset distribution "the data
// server requires sections of the dataset to be marked as being of
// interest to a render service — this render service must be updated if
// the data service receives any changes to this subset of the data."
// A subscriber whose hello names an interest set receives only the ops
// touching its subset (or the ancestors whose transforms orient that
// subset in the world); every other op reaches it as a skip record, so
// its copy's version still counts the authority's.

// interestSet tracks which nodes matter to one subscriber's outbox.
type interestSet struct {
	// covers holds the interesting nodes and their descendants; it grows
	// as children are added beneath covered nodes.
	covers map[scene.NodeID]bool
	// ancestors holds the ancestor chains of the interesting nodes:
	// their transforms reposition the subset, so changes to them are
	// delivered, but new siblings under them are not.
	ancestors map[scene.NodeID]bool
}

// newInterest builds the interest set of ids on sc. An ID not in the
// scene covers nothing: a redialling copy's node may have been removed
// while its link was down.
func newInterest(sc *scene.Scene, ids []uint64) *interestSet {
	set := &interestSet{
		covers:    map[scene.NodeID]bool{},
		ancestors: map[scene.NodeID]bool{},
	}
	var cover func(n *scene.Node)
	cover = func(n *scene.Node) {
		set.covers[n.ID] = true
		for _, c := range n.Children {
			cover(c)
		}
	}
	for _, raw := range ids {
		id := scene.NodeID(raw)
		n := sc.Node(id)
		if n == nil {
			continue
		}
		for cur := sc.Parent(id); cur != 0; cur = sc.Parent(cur) {
			set.ancestors[cur] = true
			if cur == scene.RootID {
				break
			}
		}
		cover(n)
	}
	return set
}

// wants reports whether the subscriber should receive op; callers hold
// the session lock. AddNode ops are delivered (and extend the covered
// set) when the parent is covered; other ops are delivered when they
// touch a covered node or an orienting ancestor.
func (set *interestSet) wants(op scene.Op) bool {
	if o, ok := op.(*scene.AddNodeOp); ok {
		if set.covers[o.Parent] {
			set.covers[o.ID] = true
			return true
		}
		return false
	}
	id := op.Touches()
	return set.covers[id] || set.ancestors[id]
}
