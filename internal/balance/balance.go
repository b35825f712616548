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

	"repro/internal/scene"
)

// ServiceCapacity is the distilled result of interrogating one render
// service.
type ServiceCapacity struct {
	Name string
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
	if need := totalWork(nodes); need > totalSpare {
		return nil, &ErrInsufficient{Needed: need, Available: totalSpare}
	}
	return pack(nodes, services, false)
}

// ReassignNodes places orphaned nodes (work whose render service failed)
// onto the surviving services. services must carry their current Assigned
// load so spare capacity is accurate. Without overcommit it is
// DistributeNodes and returns ErrInsufficient when the orphans do not fit
// — the caller may then recruit replacements via UDDI. With
// allowOvercommit the placement degrades gracefully instead: an orphan no
// survivor can hold lands on the least-utilized one past its capacity,
// keeping frames flowing (slower) rather than stalling the session.
func ReassignNodes(orphans []NodeItem, services []ServiceCapacity, allowOvercommit bool) (Assignment, error) {
	if !allowOvercommit || len(services) == 0 {
		return DistributeNodes(orphans, services)
	}
	return pack(orphans, services, true)
}

// pack is the one placement loop: largest node first onto the service
// with the most spare capacity that can hold it. A node no service can
// hold fails the packing with ErrInsufficient (aggregate capacity may
// exist, fragmented, or texture memory may be short), or with overcommit
// lands on the least-utilized service.
func pack(nodes []NodeItem, services []ServiceCapacity, overcommit bool) (Assignment, error) {
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
		if best == -1 && !overcommit {
			return nil, &ErrInsufficient{Needed: n.Cost.Work(), Available: maxSpare(caps)}
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

// Thresholds configure the migration policy (§3.2.7): the functions on
// Thresholds read and update services' ServiceLoad records, which their
// owner (the data service's distributor) keeps.
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

// DefaultThresholds returns the policy defaults: 10 fps interactive
// floor, 50% utilization spare mark, 3-report smoothing.
func DefaultThresholds() Thresholds {
	return Thresholds{OverloadedFPS: 10, UnderloadedUtil: 0.5, UnderloadedFor: 3}
}

// ServiceLoad is what the migration policy reads of one service: its
// capacity as last interrogated and its recent load reports.
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

// Observe records one load report in sl and returns whether it shows the
// service overloaded (a positive rate below the floor). An overloaded
// report, or one from a service at or above the underload mark, ends the
// underload streak; any other extends it.
func (th Thresholds) Observe(sl *ServiceLoad, fps float64) (overloaded bool) {
	sl.LastFPS = fps
	if fps < th.OverloadedFPS && fps > 0 {
		sl.underStreak = 0
		return true
	}
	if sl.Capacity.Utilization() < th.UnderloadedUtil {
		sl.underStreak++
	} else {
		sl.underStreak = 0
	}
	return false
}

// overloaded reports whether sl is overload pressure: its breaker is
// open (its work has nowhere to go but the others), or it last reported
// a rate below the floor.
func (th Thresholds) overloaded(sl ServiceLoad) bool {
	return sl.Unavailable || sl.LastFPS > 0 && sl.LastFPS < th.OverloadedFPS
}

// helps reports whether sl can take migrated work: available, underloaded
// for long enough, and with spare capacity.
func (th Thresholds) helps(sl ServiceLoad) bool {
	return !sl.Unavailable && sl.underStreak >= th.UnderloadedFor && sl.Capacity.Spare() > 0
}

// Move is one proposed node migration.
type Move struct {
	NodeID scene.NodeID
	From   string
	To     string
}

// NeedRecruitment reports whether some service is overloaded but none is
// a smoothed-underloaded helper — the trigger for discovering fresh
// render services through UDDI (§3.2.7).
func (th Thresholds) NeedRecruitment(loads []ServiceLoad) bool {
	over, helper := false, false
	for _, sl := range loads {
		over = over || th.overloaded(sl)
		helper = helper || th.helps(sl)
	}
	return over && !helper
}

// PlanMigration proposes fine-grained node moves from overloaded services
// to smoothed-underloaded ones, visiting both in the order of loads.
// assigned maps service -> its current nodes with costs. Nodes are moved
// smallest-first so the helper is not tipped into overload, and never
// beyond the helper's spare capacity.
func (th Thresholds) PlanMigration(loads []ServiceLoad, assigned map[string][]NodeItem) []Move {
	var over, under []string
	spare := map[string]float64{}
	for _, sl := range loads {
		if th.overloaded(sl) {
			over = append(over, sl.Capacity.Name)
		} else if th.helps(sl) {
			under = append(under, sl.Capacity.Name)
			spare[sl.Capacity.Name] = sl.Capacity.Spare()
		}
	}
	if len(over) == 0 || len(under) == 0 {
		return nil
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
		for _, n := range nodes {
			if shed >= target {
				break
			}
			placed := false
			for _, u := range under {
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
