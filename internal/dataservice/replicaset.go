package dataservice

import (
	"fmt"
	"sync"

	"repro/internal/netsim"
)

// ReplicaSet manages a primary session's N-way mirror fan-out: the
// generalization of PR 3's single hot-standby. Each member is a named
// in-process Mirror (the gateway tier's replication primitive) tagged
// with the locality of the node holding it, so promotion can prefer
// the most-caught-up in-region copy and placement can keep the set
// region-spread. The set tracks membership only — deciding *which*
// nodes should hold replicas (and recruiting new ones when the factor
// drops) is the gateway's job; enforcing it is one Attach call away.
type ReplicaSet struct {
	primary *Session

	mu      sync.Mutex
	members map[string]*setMember
	order   []string // attach order, the final promotion tiebreak
}

// setMember is one attached replica.
type setMember struct {
	name   string
	region string
	mirror *Mirror
}

// NewReplicaSet returns an empty set following primary.
func NewReplicaSet(primary *Session) *ReplicaSet {
	return &ReplicaSet{primary: primary, members: map[string]*setMember{}}
}

// Primary returns the session the set follows.
func (rs *ReplicaSet) Primary() *Session { return rs.primary }

// Attach adds (or re-adds) a named replica on backupSvc, resuming
// gap-only when the backup already holds a copy of the session (see
// MirrorSessionSince). region records where the replica lives for
// promotion preference; it usually equals backupSvc.Region().
func (rs *ReplicaSet) Attach(name, region string, backupSvc *Service) (resumed bool, err error) {
	if name == "" {
		return false, fmt.Errorf("dataservice: replica name required")
	}
	rs.mu.Lock()
	if _, dup := rs.members[name]; dup {
		rs.mu.Unlock()
		return false, fmt.Errorf("dataservice: replica %q already attached", name)
	}
	rs.mu.Unlock()
	m, resumed, err := MirrorSessionSince(rs.primary, backupSvc)
	if err != nil {
		return false, err
	}
	rs.mu.Lock()
	if _, dup := rs.members[name]; dup {
		rs.mu.Unlock()
		m.Detach()
		return false, fmt.Errorf("dataservice: replica %q already attached", name)
	}
	rs.members[name] = &setMember{name: name, region: region, mirror: m}
	rs.order = append(rs.order, name)
	rs.mu.Unlock()
	return resumed, nil
}

// Detach stops replicating to the named member without promoting it;
// the backup keeps its frozen copy for a later gap-only re-attach.
// Unknown names are a no-op (teardown races enforcement by design).
func (rs *ReplicaSet) Detach(name string) {
	rs.mu.Lock()
	mem, ok := rs.members[name]
	if ok {
		delete(rs.members, name)
		for i, n := range rs.order {
			if n == name {
				rs.order = append(rs.order[:i], rs.order[i+1:]...)
				break
			}
		}
	}
	rs.mu.Unlock()
	if ok {
		mem.mirror.Detach()
	}
}

// DetachAll tears the whole set down (session teardown or the set
// being rebuilt against a new primary after promotion).
func (rs *ReplicaSet) DetachAll() {
	rs.mu.Lock()
	members := make([]*setMember, 0, len(rs.members))
	for _, mem := range rs.members {
		members = append(members, mem)
	}
	rs.members = map[string]*setMember{}
	rs.order = nil
	rs.mu.Unlock()
	for _, mem := range members {
		mem.mirror.Detach()
	}
}

// Size returns the live member count.
func (rs *ReplicaSet) Size() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.members)
}

// Names lists the members in attach order.
func (rs *ReplicaSet) Names() []string {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return append([]string(nil), rs.order...)
}

// Has reports whether the named replica is attached.
func (rs *ReplicaSet) Has(name string) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	_, ok := rs.members[name]
	return ok
}

// Acked returns each member's applied-through version (0 for members
// whose replication stream failed — their copies are not trustworthy).
func (rs *ReplicaSet) Acked() map[string]uint64 {
	rs.mu.Lock()
	members := make([]*setMember, 0, len(rs.members))
	for _, mem := range rs.members {
		members = append(members, mem)
	}
	rs.mu.Unlock()
	out := make(map[string]uint64, len(members))
	for _, mem := range members {
		out[mem.name] = mem.mirror.AckedVersion()
	}
	return out
}

// Best picks the promotion target among members accepted by the
// eligible filter (nil accepts all): the most-caught-up copy, with
// region match against preferRegion breaking version ties and attach
// order breaking the rest — so a flat single-region fleet promotes the
// first-attached (ring successor) replica, exactly PR 6's behavior.
// Members with failed streams are skipped entirely.
func (rs *ReplicaSet) Best(preferRegion string, eligible func(name string) bool) (name string, ok bool) {
	rs.mu.Lock()
	ordered := make([]*setMember, 0, len(rs.order))
	for _, n := range rs.order {
		ordered = append(ordered, rs.members[n])
	}
	rs.mu.Unlock()
	bestVer := uint64(0)
	bestMatch := false
	for _, mem := range ordered {
		if eligible != nil && !eligible(mem.name) {
			continue
		}
		if mem.mirror.Err() != nil {
			continue
		}
		ver := mem.mirror.AckedVersion()
		match := !netsim.CrossRegion(preferRegion, mem.region)
		switch {
		case !ok, ver > bestVer, ver == bestVer && match && !bestMatch:
			name, ok = mem.name, true
			bestVer, bestMatch = ver, match
		}
	}
	return name, ok
}

// Take removes and returns the named member's mirror without detaching
// it — the promotion path, where the caller promotes the mirror itself.
func (rs *ReplicaSet) Take(name string) (*Mirror, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	mem, ok := rs.members[name]
	if !ok {
		return nil, false
	}
	delete(rs.members, name)
	for i, n := range rs.order {
		if n == name {
			rs.order = append(rs.order[:i], rs.order[i+1:]...)
			break
		}
	}
	return mem.mirror, true
}
