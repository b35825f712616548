// Package gateway implements the session-sharded front-door tier: a
// consistent-hash placement ring over the data-service fleet, per-tenant
// fair-share admission at the front door, render-capacity reservation
// before dispatch, and lease-epoch-stamped rebalancing on membership
// change. It composes the primitives earlier PRs built — epoch-stamped
// UDDI leases (split-brain exclusion), in-process session mirroring
// (state survives a node kill), and the two-class admission semantics of
// the render service — into the paper's "automatic distribution of
// rendering workloads" at fleet scale: thousands of sessions, each owned
// by exactly one data service at any epoch, reachable through one
// stable entry point.
package gateway

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// DefaultRingReplicas is how many virtual points each member gets on
// the hash ring when Config.Replicas is zero. Per-node load deviation
// shrinks roughly as 1/sqrt(replicas); 512 vnodes keep the worst node
// within 20% of the mean for fleets of 4-16 nodes (the ring property
// tests pin this) while a membership change still rebuilds only a few
// thousand points.
const DefaultRingReplicas = 512

// Ring is a consistent-hash ring: keys (session names) map to members
// (data-service node names) such that adding or removing one member
// moves only ~1/N of the keys, and every key's standby — the next
// distinct member clockwise — is exactly the member that would inherit
// the key if its owner vanished. That identity is what lets the gateway
// keep each session's mirror precisely where the session will fail over
// to. Safe for concurrent use.
type Ring struct {
	replicas int

	mu      sync.RWMutex
	members map[string]struct{}
	points  []ringPoint // sorted by (hash, member)
}

// ringPoint is one virtual node.
type ringPoint struct {
	hash   uint64
	member string
}

// NewRing returns an empty ring with the given virtual-node count per
// member (0 means DefaultRingReplicas).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultRingReplicas
	}
	return &Ring{replicas: replicas, members: map[string]struct{}{}}
}

// hash64 is the ring's placement hash: FNV-1a followed by a
// splitmix64 finalizer. FNV alone avalanches poorly on near-identical
// strings ("ds-00#0", "ds-00#1", ...), clumping vnodes and skewing
// ownership by 2-3x; the finalizer restores uniform spread while
// staying deterministic across processes and runs, which keeps
// placement reproducible under the virtual clock.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a member (idempotent).
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; ok {
		return
	}
	r.members[member] = struct{}{}
	r.rebuildLocked()
}

// Remove drops a member (idempotent).
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; !ok {
		return
	}
	delete(r.members, member)
	r.rebuildLocked()
}

// Has reports membership.
func (r *Ring) Has(member string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.members[member]
	return ok
}

// Members lists members, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// rebuildLocked regenerates the sorted vnode points. Callers hold r.mu.
func (r *Ring) rebuildLocked() {
	r.points = r.points[:0]
	for m := range r.members {
		for i := 0; i < r.replicas; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(m + "#" + strconv.Itoa(i)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
}

// Owner returns the member owning the key: the first vnode clockwise
// from the key's hash. ok is false on an empty ring.
func (r *Ring) Owner(key string) (owner string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	i, ok := r.ownerIndexLocked(key)
	if !ok {
		return "", false
	}
	return r.points[i].member, true
}

// OwnerAndStandby returns the key's owner and its standby: the next
// *distinct* member clockwise from the owning vnode — exactly the
// member consistent hashing hands the key to if the owner is removed.
// standby is "" when the ring has fewer than two members.
func (r *Ring) OwnerAndStandby(key string) (owner, standby string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	i, ok := r.ownerIndexLocked(key)
	if !ok {
		return "", "", false
	}
	owner = r.points[i].member
	n := len(r.points)
	for step := 1; step < n; step++ {
		if m := r.points[(i+step)%n].member; m != owner {
			return owner, m, true
		}
	}
	return owner, "", true
}

// Successors returns up to k distinct members clockwise from the key's
// owning vnode, excluding the owner itself, in ring-walk order. The
// first entry is exactly OwnerAndStandby's standby; the full walk is
// the deterministic candidate order N-way replica placement draws from.
func (r *Ring) Successors(key string, k int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	i, ok := r.ownerIndexLocked(key)
	if !ok || k <= 0 {
		return nil
	}
	owner := r.points[i].member
	seen := map[string]bool{owner: true}
	var out []string
	n := len(r.points)
	for step := 1; step < n && len(out) < k; step++ {
		if m := r.points[(i+step)%n].member; !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// ownerIndexLocked finds the owning vnode's index. Callers hold r.mu.
func (r *Ring) ownerIndexLocked(key string) (int, bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i, true
}
