package uddi

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Replica-location index: the registry's answer to "where can I fetch
// this session's scene from, nearest first?". PAPERS.md's DataGrid
// replica-management service plays exactly this role — a catalogue of
// live copies queried at recruitment time so bootstrap traffic stays
// off the WAN. Each replica row is region-tagged and TTL'd like a
// lease: the holder re-reports it on every applied-version heartbeat,
// and a row that stops being reported lapses out of query results, so
// the index converges on the truth without a failure detector of its
// own. Like the lease table, the index is passive — callers pass now.

// ReplicaRole distinguishes the authoritative copy from followers.
type ReplicaRole string

const (
	// RolePrimary marks the session's authoritative copy.
	RolePrimary ReplicaRole = "primary"
	// RoleReplica marks an op-stream follower.
	RoleReplica ReplicaRole = "replica"
)

// Replica is one row of the replica-location index.
type Replica struct {
	// Session is the logical session name, e.g. "skull".
	Session string `json:"session"`
	// Name identifies the node holding this copy.
	Name string `json:"name"`
	// Region is the holder's locality in "region" or "region/zone" form.
	Region string `json:"region"`
	// AccessPoint is where to connect for this copy.
	AccessPoint string `json:"access_point"`
	// Role is RolePrimary or RoleReplica.
	Role ReplicaRole `json:"role"`
	// Version is the last scene version the holder reported applied.
	Version uint64 `json:"version"`
	// Expires is when the row lapses unless re-reported.
	Expires time.Time `json:"expires"`
}

// RegisterReplica upserts a replica row for rep.Session/rep.Name with
// the given TTL. Registering a primary demotes any other row of the
// session still marked primary — the index never shows two.
func (r *Registry) RegisterReplica(rep Replica, ttl time.Duration, now time.Time) (Replica, error) {
	if rep.Session == "" || rep.Name == "" {
		return Replica{}, fmt.Errorf("uddi: replica session and name required")
	}
	if rep.Role != RolePrimary && rep.Role != RoleReplica {
		return Replica{}, fmt.Errorf("uddi: replica role must be %q or %q, got %q", RolePrimary, RoleReplica, rep.Role)
	}
	if ttl <= 0 {
		return Replica{}, fmt.Errorf("uddi: replica ttl must be positive")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rows := r.replicas[rep.Session]
	if rows == nil {
		rows = map[string]Replica{}
		r.replicas[rep.Session] = rows
	}
	if rep.Role == RolePrimary {
		for name, cur := range rows {
			if name != rep.Name && cur.Role == RolePrimary {
				cur.Role = RoleReplica
				rows[name] = cur
			}
		}
	}
	rep.Expires = now.Add(ttl)
	rows[rep.Name] = rep
	return rep, nil
}

// ReportReplica refreshes a registered row's applied version and TTL —
// the per-heartbeat cheap path. Reporting an unregistered (or already
// dropped) row is an error: the holder must re-register with its full
// location first.
func (r *Registry) ReportReplica(session, name string, version uint64, ttl time.Duration, now time.Time) (Replica, error) {
	if ttl <= 0 {
		return Replica{}, fmt.Errorf("uddi: replica ttl must be positive")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.replicas[session][name]
	if !ok {
		return Replica{}, fmt.Errorf("uddi: replica %q of session %q not registered", name, session)
	}
	cur.Version = version
	cur.Expires = now.Add(ttl)
	r.replicas[session][name] = cur
	return cur, nil
}

// DropReplica removes a row (clean detach or confirmed death). Dropping
// an unknown row is a no-op — drops race lapses by design.
func (r *Registry) DropReplica(session, name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	rows, ok := r.replicas[session]
	if !ok {
		return nil
	}
	delete(rows, name)
	if len(rows) == 0 {
		delete(r.replicas, session)
	}
	return nil
}

// QueryReplicas returns the session's live replica rows nearest-first
// from the caller's region: rows whose region matches fromRegion (the
// component before any "/") sort ahead, then higher applied versions,
// then name — a total order, so the result is deterministic for any
// given registry state. Lapsed rows are filtered, not returned.
func (r *Registry) QueryReplicas(session, fromRegion string, now time.Time) []Replica {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Replica
	for _, rep := range r.replicas[session] {
		if now.Before(rep.Expires) {
			out = append(out, rep)
		}
	}
	from := regionOf(fromRegion)
	sort.Slice(out, func(i, j int) bool {
		di, dj := regionMatch(from, out[i].Region), regionMatch(from, out[j].Region)
		if di != dj {
			return di < dj
		}
		if out[i].Version != out[j].Version {
			return out[i].Version > out[j].Version
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// regionOf strips the zone component: "eu/a" → "eu".
func regionOf(locality string) string {
	region, _, _ := strings.Cut(locality, "/")
	return region
}

// regionMatch is the registry's coarse distance: 0 when the regions
// match, 1 otherwise. The registry stays topology-agnostic: zone-level
// ranking would need a netsim.Topology, which no caller asks of it.
func regionMatch(from, locality string) int {
	if from == regionOf(locality) {
		return 0
	}
	return 1
}
