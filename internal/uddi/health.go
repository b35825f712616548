package uddi

import (
	"fmt"
	"sort"
	"time"
)

// Node-health table: the registry's answer to "can this node still be
// trusted with new work?". A node's liveness is already covered by
// leases and replica rows lapsing; health covers the subtler failure
// where the node is alive and reachable but its storage is dying — a
// full disk, a failing fsync, a poisoned WAL. Such a node keeps serving
// what it has in memory (its copies are promotion sources) but must
// stop receiving placements, and the gateway must evacuate its
// sessions. Rows are TTL'd like everything else here: a node that stops
// reporting lapses back to unknown, and like the lease table the store
// is passive — callers pass now.

// Health states a node can report.
const (
	// HealthOK means storage commits are succeeding.
	HealthOK = "ok"
	// HealthStorageDegraded means the node can no longer commit
	// durably: WAL poisoned, disk full, or fsync failing. Alive, but
	// not placeable.
	HealthStorageDegraded = "storage-degraded"
)

// NodeHealth is one row of the health table.
type NodeHealth struct {
	// Name identifies the reporting node.
	Name string `json:"name"`
	// State is HealthOK or HealthStorageDegraded.
	State string `json:"state"`
	// Detail is a short operator-facing cause ("wal poisoned: ...").
	Detail string `json:"detail,omitempty"`
	// Expires is when the row lapses unless re-reported. It does not
	// cross SOAP: remote callers get live rows, never their expiry.
	Expires time.Time `json:"-"`
}

// ReportHealth upserts the node's health row with the given TTL — sent
// with every heartbeat, like replica reports.
func (r *Registry) ReportHealth(name, state, detail string, ttl time.Duration, now time.Time) (NodeHealth, error) {
	if name == "" {
		return NodeHealth{}, fmt.Errorf("uddi: health node name required")
	}
	if state != HealthOK && state != HealthStorageDegraded {
		return NodeHealth{}, fmt.Errorf("uddi: health state must be %q or %q, got %q", HealthOK, HealthStorageDegraded, state)
	}
	if ttl <= 0 {
		return NodeHealth{}, fmt.Errorf("uddi: health ttl must be positive")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	row := NodeHealth{Name: name, State: state, Detail: detail, Expires: now.Add(ttl)}
	r.health[name] = row
	return row, nil
}

// QueryHealth returns the node's live health row. A lapsed or
// never-reported row returns ok=false: absence of evidence is not
// degradation — a node that never reports health is judged by its
// leases alone.
func (r *Registry) QueryHealth(name string, now time.Time) (NodeHealth, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	row, ok := r.health[name]
	if !ok || !now.Before(row.Expires) {
		return NodeHealth{}, false
	}
	return row, true
}

// DegradedNodes lists the nodes currently reporting
// HealthStorageDegraded, sorted by name — the set the gateway drains.
func (r *Registry) DegradedNodes(now time.Time) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for name, row := range r.health {
		if row.State == HealthStorageDegraded && now.Before(row.Expires) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
