// Package balance implements RAVE's workload distribution and migration
// policies (§3.2.5, §3.2.7): deciding which scene-tree nodes go to which
// render service given each service's interrogated capacity, assigning
// framebuffer tiles proportionally to rendering speed, and reacting to
// overload/underload reports with fine-grained node moves — "if an
// underloaded service has capacity for another 5k polygons/sec ... we do
// not want to add 100k polygons by mistake".
package balance

import (
	"fmt"
	"image"
	"math"
	"sort"
	"strings"

	"repro/internal/scene"
)

// ServiceCapacity is the distilled result of interrogating one render
// service.
type ServiceCapacity struct {
	Name string
	// Region is the service's locality ("region" or "region/zone");
	// empty means the flat single-site deployment. The migration engine
	// prefers same-region helpers so shed work does not cross the WAN
	// when a neighbour has capacity.
	Region string
	// WorkPerFrame is how much weighted work (scene.Cost.Work units) the
	// service can render per frame at its target rate.
	WorkPerFrame float64
	// TextureBytes is available texture memory.
	TextureBytes int64
	// Assigned is the work currently assigned.
	Assigned float64
	// AssignedBytes is the texture memory currently consumed.
	AssignedBytes int64
}

// Spare returns remaining per-frame work capacity.
func (s ServiceCapacity) Spare() float64 { return s.WorkPerFrame - s.Assigned }

// Utilization returns assigned/capacity (0 when capacity is unknown).
func (s ServiceCapacity) Utilization() float64 {
	if s.WorkPerFrame <= 0 {
		return 0
	}
	return s.Assigned / s.WorkPerFrame
}

// Imbalance measures how unevenly a set of per-service counts is
// spread: the maximum absolute deviation from the mean, as a fraction
// of the mean (0 = perfectly even, 0.2 = some service is 20% off its
// fair share). The gateway tier uses it to judge consistent-hash
// session placement, and the load harness reports it per run; it is the
// scalar the "balanced within 20%" placement contract is asserted on.
// Zero or one service, or an all-zero spread, is perfectly balanced.
func Imbalance(counts map[string]int) float64 {
	if len(counts) < 2 {
		return 0
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(counts))
	worst := 0.0
	for _, c := range counts {
		if dev := math.Abs(float64(c) - mean); dev > worst {
			worst = dev
		}
	}
	return worst / mean
}

// NodeItem is one distributable scene node with its cost.
type NodeItem struct {
	ID   scene.NodeID
	Cost scene.Cost
}

// Assignment maps service names to the node IDs they render.
type Assignment map[string][]scene.NodeID

// ErrInsufficient is returned when the combined capacity cannot hold the
// dataset — the paper's "request is refused with an explanatory error
// message" (§3.2.5).
type ErrInsufficient struct {
	Needed, Available float64
}

// Error implements error.
func (e *ErrInsufficient) Error() string {
	return fmt.Sprintf("balance: insufficient render capacity: need %.0f work/frame, have %.0f",
		e.Needed, e.Available)
}

// DistributeNodes packs nodes onto services: nodes are placed largest
// first onto the service with the most spare capacity (greedy LPT
// scheduling), respecting texture memory. Services are not overcommitted;
// if the dataset cannot fit, ErrInsufficient reports the shortfall so the
// data service can recruit more render services via UDDI.
func DistributeNodes(nodes []NodeItem, services []ServiceCapacity) (Assignment, error) {
	if len(services) == 0 {
		return nil, &ErrInsufficient{Needed: totalWork(nodes), Available: 0}
	}
	totalSpare := 0.0
	for _, s := range services {
		totalSpare += s.Spare()
	}
	need := totalWork(nodes)
	if need > totalSpare {
		return nil, &ErrInsufficient{Needed: need, Available: totalSpare}
	}

	sorted := append([]NodeItem(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Cost.Work() != sorted[j].Cost.Work() {
			return sorted[i].Cost.Work() > sorted[j].Cost.Work()
		}
		return sorted[i].ID < sorted[j].ID
	})
	caps := append([]ServiceCapacity(nil), services...)

	out := Assignment{}
	for _, n := range sorted {
		best := -1
		var bestSpare float64
		for i := range caps {
			spare := caps[i].Spare()
			if spare >= n.Cost.Work() &&
				caps[i].TextureBytes-caps[i].AssignedBytes >= n.Cost.Bytes &&
				(best == -1 || spare > bestSpare) {
				best = i
				bestSpare = spare
			}
		}
		if best == -1 {
			// Aggregate capacity exists but no single service can take
			// this node (fragmentation or texture memory).
			return nil, &ErrInsufficient{Needed: n.Cost.Work(), Available: maxSpare(caps)}
		}
		caps[best].Assigned += n.Cost.Work()
		caps[best].AssignedBytes += n.Cost.Bytes
		out[caps[best].Name] = append(out[caps[best].Name], n.ID)
	}
	return out, nil
}

// ReassignNodes places orphaned nodes (work whose render service failed)
// onto the surviving services. services must carry their current Assigned
// load so spare capacity is accurate. Without overcommit it behaves like
// DistributeNodes and returns ErrInsufficient when the orphans do not fit
// — the caller may then recruit replacements via UDDI. With
// allowOvercommit the placement degrades gracefully instead: every orphan
// lands on the least-loaded survivor even past its capacity, keeping
// frames flowing (slower) rather than stalling the session.
func ReassignNodes(orphans []NodeItem, services []ServiceCapacity, allowOvercommit bool) (Assignment, error) {
	if len(services) == 0 {
		return nil, &ErrInsufficient{Needed: totalWork(orphans), Available: 0}
	}
	if !allowOvercommit {
		return DistributeNodes(orphans, services)
	}

	sorted := append([]NodeItem(nil), orphans...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Cost.Work() != sorted[j].Cost.Work() {
			return sorted[i].Cost.Work() > sorted[j].Cost.Work()
		}
		return sorted[i].ID < sorted[j].ID
	})
	caps := append([]ServiceCapacity(nil), services...)
	sort.Slice(caps, func(i, j int) bool { return caps[i].Name < caps[j].Name })

	out := Assignment{}
	for _, n := range sorted {
		// Prefer a survivor that can hold the node outright; otherwise
		// overcommit the one with the lowest utilization.
		best := -1
		var bestSpare float64
		for i := range caps {
			spare := caps[i].Spare()
			if spare >= n.Cost.Work() &&
				caps[i].TextureBytes-caps[i].AssignedBytes >= n.Cost.Bytes &&
				(best == -1 || spare > bestSpare) {
				best = i
				bestSpare = spare
			}
		}
		if best == -1 {
			for i := range caps {
				if best == -1 || caps[i].Utilization() < caps[best].Utilization() {
					best = i
				}
			}
		}
		caps[best].Assigned += n.Cost.Work()
		caps[best].AssignedBytes += n.Cost.Bytes
		out[caps[best].Name] = append(out[caps[best].Name], n.ID)
	}
	return out, nil
}

// sameRegion reports whether two "region" / "region/zone" localities
// share a region. Empty localities count as local everywhere: a flat
// deployment that never configures regions has no WAN by definition.
func sameRegion(a, b string) bool {
	ra, _, _ := strings.Cut(a, "/")
	rb, _, _ := strings.Cut(b, "/")
	return ra == rb || ra == "" || rb == ""
}

func totalWork(nodes []NodeItem) float64 {
	t := 0.0
	for _, n := range nodes {
		t += n.Cost.Work()
	}
	return t
}

func maxSpare(caps []ServiceCapacity) float64 {
	m := 0.0
	for _, c := range caps {
		if s := c.Spare(); s > m {
			m = s
		}
	}
	return m
}

// DistributeTiles splits a w x h framebuffer into one tile per service,
// with tile areas proportional to service speed (the Distributed
// Visualization System's pixels-proportional-to-speed idea, which RAVE's
// tile mode follows). Tiles are horizontal bands; every pixel is covered
// exactly once. Services with non-positive speed get no tile.
func DistributeTiles(w, h int, services []ServiceCapacity) map[string]image.Rectangle {
	type share struct {
		name  string
		speed float64
	}
	var shares []share
	total := 0.0
	for _, s := range services {
		if s.WorkPerFrame > 0 {
			shares = append(shares, share{s.Name, s.WorkPerFrame})
			total += s.WorkPerFrame
		}
	}
	out := map[string]image.Rectangle{}
	if total <= 0 || w <= 0 || h <= 0 {
		return out
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].name < shares[j].name })
	y := 0
	acc := 0.0
	for i, sh := range shares {
		acc += sh.speed
		y1 := int(float64(h)*acc/total + 0.5)
		if i == len(shares)-1 {
			y1 = h
		}
		if y1 > y {
			out[sh.name] = image.Rect(0, y, w, y1)
			y = y1
		}
	}
	return out
}

// Thresholds configure the migration engine (§3.2.7).
type Thresholds struct {
	// OverloadedFPS: a service reporting a rate below this is overloaded.
	OverloadedFPS float64
	// UnderloadedUtil: utilization below this marks a service as having
	// spare capacity.
	UnderloadedUtil float64
	// UnderloadedFor: how many consecutive reports a service must stay
	// underloaded before work moves to it ("for a given amount of time,
	// to smooth out spikes of usage").
	UnderloadedFor int
}

// DefaultThresholds returns the engine defaults: 10 fps interactive
// floor, 50% utilization spare mark, 3-report smoothing.
func DefaultThresholds() Thresholds {
	return Thresholds{OverloadedFPS: 10, UnderloadedUtil: 0.5, UnderloadedFor: 3}
}

// ServiceLoad tracks one service's recent reports for the migration
// engine.
type ServiceLoad struct {
	Capacity ServiceCapacity
	LastFPS  float64
	// Unavailable marks a service whose per-peer circuit breaker is
	// open: it is refusing or timing out on work right now. It cannot
	// serve as a migration helper, and its existence is overload
	// pressure — shedding to nowhere escalates into recruitment.
	Unavailable bool
	underStreak int
}

// MigrationEngine accumulates load reports and proposes node moves.
type MigrationEngine struct {
	Thresholds Thresholds
	services   map[string]*ServiceLoad
}

// NewMigrationEngine returns an engine with the given thresholds.
func NewMigrationEngine(th Thresholds) *MigrationEngine {
	return &MigrationEngine{Thresholds: th, services: map[string]*ServiceLoad{}}
}

// UpdateCapacity registers or refreshes a service's capacity.
func (m *MigrationEngine) UpdateCapacity(c ServiceCapacity) {
	sl, ok := m.services[c.Name]
	if !ok {
		sl = &ServiceLoad{}
		m.services[c.Name] = sl
	}
	sl.Capacity = c
}

// Remove forgets a service (it left the session).
func (m *MigrationEngine) Remove(name string) { delete(m.services, name) }

// SetAvailable records a circuit-breaker verdict for a service: false
// when the peer's breaker opened (consecutive declines or timeouts),
// true once a half-open probe succeeded. Unavailable services are
// excluded from helper selection and count as overload pressure in
// NeedRecruitment.
func (m *MigrationEngine) SetAvailable(name string, available bool) {
	sl, ok := m.services[name]
	if !ok {
		sl = &ServiceLoad{}
		m.services[name] = sl
	}
	sl.Unavailable = !available
}

// Available reports whether a service is currently usable (unknown
// services default to available).
func (m *MigrationEngine) Available(name string) bool {
	if sl, ok := m.services[name]; ok {
		return !sl.Unavailable
	}
	return true
}

// ReportLoad records a load report and returns whether the service is
// currently overloaded.
func (m *MigrationEngine) ReportLoad(name string, fps float64) (overloaded bool) {
	sl, ok := m.services[name]
	if !ok {
		sl = &ServiceLoad{}
		m.services[name] = sl
	}
	sl.LastFPS = fps
	if fps < m.Thresholds.OverloadedFPS && fps > 0 {
		sl.underStreak = 0
		return true
	}
	if sl.Capacity.Utilization() < m.Thresholds.UnderloadedUtil {
		sl.underStreak++
	} else {
		sl.underStreak = 0
	}
	return false
}

// Move is one proposed node migration.
type Move struct {
	NodeID scene.NodeID
	From   string
	To     string
}

// NeedRecruitment reports whether the engine has an overloaded service
// but no smoothed-underloaded helper — the trigger for discovering fresh
// render services through UDDI (§3.2.7).
func (m *MigrationEngine) NeedRecruitment() bool {
	over := false
	helper := false
	for _, sl := range m.services {
		if sl.Unavailable {
			// A breaker-open peer is overload pressure: its share of the
			// work has nowhere to go but the survivors.
			over = true
			continue
		}
		if sl.LastFPS > 0 && sl.LastFPS < m.Thresholds.OverloadedFPS {
			over = true
		}
		if sl.underStreak >= m.Thresholds.UnderloadedFor && sl.Capacity.Spare() > 0 {
			helper = true
		}
	}
	return over && !helper
}

// PlanMigration proposes fine-grained node moves from overloaded services
// to smoothed-underloaded ones. assigned maps service -> its current
// nodes with costs. Nodes are moved smallest-first so the helper is not
// tipped into overload, and never beyond the helper's spare capacity.
func (m *MigrationEngine) PlanMigration(assigned map[string][]NodeItem) []Move {
	var over, under []string
	for name, sl := range m.services {
		if sl.Unavailable {
			// Drain a breaker-open peer; never migrate work onto it.
			over = append(over, name)
		} else if sl.LastFPS > 0 && sl.LastFPS < m.Thresholds.OverloadedFPS {
			over = append(over, name)
		} else if sl.underStreak >= m.Thresholds.UnderloadedFor && sl.Capacity.Spare() > 0 {
			under = append(under, name)
		}
	}
	sort.Strings(over)
	sort.Strings(under)
	if len(over) == 0 || len(under) == 0 {
		return nil
	}

	spare := map[string]float64{}
	for _, u := range under {
		spare[u] = m.services[u].Capacity.Spare()
	}

	var moves []Move
	for _, o := range over {
		nodes := append([]NodeItem(nil), assigned[o]...)
		// Smallest first: fine-grained moves.
		sort.Slice(nodes, func(i, j int) bool {
			if nodes[i].Cost.Work() != nodes[j].Cost.Work() {
				return nodes[i].Cost.Work() < nodes[j].Cost.Work()
			}
			return nodes[i].ID < nodes[j].ID
		})
		// Shed up to half of the overloaded service's work.
		target := totalWork(nodes) / 2
		shed := 0.0
		// Same-region helpers first: shedding across the WAN is a last
		// resort, taken only when no neighbour has room.
		fromRegion := m.services[o].Capacity.Region
		ranked := make([]string, 0, len(under))
		for _, u := range under {
			if sameRegion(fromRegion, m.services[u].Capacity.Region) {
				ranked = append(ranked, u)
			}
		}
		for _, u := range under {
			if !sameRegion(fromRegion, m.services[u].Capacity.Region) {
				ranked = append(ranked, u)
			}
		}
		for _, n := range nodes {
			if shed >= target {
				break
			}
			placed := false
			for _, u := range ranked {
				if spare[u] >= n.Cost.Work() {
					moves = append(moves, Move{NodeID: n.ID, From: o, To: u})
					spare[u] -= n.Cost.Work()
					shed += n.Cost.Work()
					placed = true
					break
				}
			}
			if !placed {
				break // helpers full; recruitment will be needed
			}
		}
	}
	return moves
}

// Snapshot returns current per-service state sorted by name, for
// diagnostics and the registry browser.
func (m *MigrationEngine) Snapshot() []ServiceLoad {
	var out []ServiceLoad
	for _, sl := range m.services {
		out = append(out, *sl)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Capacity.Name < out[j].Capacity.Name })
	return out
}
