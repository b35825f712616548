package netsim

import (
	"strings"
	"sync"
	"time"
)

// Region/zone topology. The paper's testbed was one lab segment; a
// multi-region deployment adds two more link classes on top of it: the
// metro link between zones of one region and the WAN link between
// regions. A Topology classifies the path between two localities,
// answers distance queries (the replica-placement sort key), and models
// region partitions: a partitioned region keeps serving internally but
// cannot reach — or be reached from — the rest of the world until the
// partition heals. The struct is pure state shared by a whole simulated
// fleet; it carries no clock of its own.

// Locality names where a host sits: a region (site/datacenter) and an
// optional zone within it. The canonical string form is "region" or
// "region/zone". The zero Locality ("everywhere the paper's single lab
// was") is in-zone with every other zero Locality.
type Locality struct {
	Region string
	Zone   string
}

// ParseLocality parses "region" or "region/zone".
func ParseLocality(s string) Locality {
	region, zone, _ := strings.Cut(s, "/")
	return Locality{Region: region, Zone: zone}
}

// CrossRegion reports whether two "region" / "region/zone" localities
// sit in different regions. Unknown (empty) localities count as local:
// a single-site deployment that never configures regions has no cross
// traffic by definition.
func CrossRegion(a, b string) bool {
	ra, rb := ParseLocality(a).Region, ParseLocality(b).Region
	return ra != rb && ra != "" && rb != ""
}

// String renders the canonical "region/zone" (or bare "region") form.
func (l Locality) String() string {
	if l.Zone == "" {
		return l.Region
	}
	return l.Region + "/" + l.Zone
}

// LinkClass classifies the path between two localities.
type LinkClass int

const (
	// LinkLocal is the in-zone path (same region, same zone).
	LinkLocal LinkClass = iota
	// LinkRegional is the metro path between zones of one region.
	LinkRegional
	// LinkWAN is the long-haul path between regions.
	LinkWAN
)

// String names the class for logs and metrics labels.
func (c LinkClass) String() string {
	switch c {
	case LinkLocal:
		return "local"
	case LinkRegional:
		return "regional"
	default:
		return "wan"
	}
}

// Topology distances. Same zone is 0, same region 1, cross-region 2;
// DistanceUnreachable is returned for pairs split by an active
// partition (far larger than any reachable distance, so a plain
// ascending sort pushes unreachable candidates last).
const (
	DistanceZone        = 0
	DistanceRegion      = 1
	DistanceWAN         = 2
	DistanceUnreachable = 1 << 30
)

// LocalZoneLink returns the default in-zone path: the lab's switched
// ethernet.
func LocalZoneLink() Link { return Ethernet100() }

// RegionalLink returns the default metro path between zones of one
// region: gigabit-class with a couple of milliseconds of latency.
func RegionalLink() Link {
	return Link{BandwidthBps: 1e9, Efficiency: 0.9, Latency: 2 * time.Millisecond, Quality: 1}
}

// WANLink returns the default long-haul inter-region path: bandwidth is
// plentiful but latency dominates, which is exactly why bootstrap
// snapshots should come from an in-region replica.
func WANLink() Link {
	return Link{BandwidthBps: 2e8, Efficiency: 0.85, Latency: 40 * time.Millisecond, Quality: 1}
}

// Topology is the fleet's shared region/zone map: per-class link models
// plus the current partition state. Safe for concurrent use.
type Topology struct {
	mu    sync.RWMutex
	links [3]Link
	// cut holds the regions on the far side of an active partition;
	// empty means healed. Two localities can reach each other iff they
	// are on the same side of the cut.
	cut map[string]bool
}

// NewTopology returns a healed topology with the default link models.
func NewTopology() *Topology {
	return &Topology{
		links: [3]Link{LinkLocal: LocalZoneLink(), LinkRegional: RegionalLink(), LinkWAN: WANLink()},
		cut:   map[string]bool{},
	}
}

// SetLink overrides one class's link model.
func (t *Topology) SetLink(c LinkClass, l Link) {
	t.mu.Lock()
	t.links[classIndex(c)] = l
	t.mu.Unlock()
}

func classIndex(c LinkClass) int {
	if c < LinkLocal || c > LinkWAN {
		return int(LinkWAN)
	}
	return int(c)
}

// Class classifies the path between two localities (ignoring any
// partition — a cut path still has a class, it just drops everything).
func Class(a, b Locality) LinkClass {
	switch {
	case a.Region != b.Region:
		return LinkWAN
	case a.Zone != b.Zone:
		return LinkRegional
	default:
		return LinkLocal
	}
}

// LinkBetween returns the link model for the path between two
// localities and whether the path currently carries traffic (false
// while a partition separates them).
func (t *Topology) LinkBetween(a, b Locality) (Link, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.links[classIndex(Class(a, b))], t.reachableLocked(a, b)
}

// Distance returns the topology distance between two localities:
// DistanceZone, DistanceRegion or DistanceWAN — or DistanceUnreachable
// while a partition separates them. It is the replica-selection sort
// key: ascending distance is "nearest live replica first".
func (t *Topology) Distance(a, b Locality) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.reachableLocked(a, b) {
		return DistanceUnreachable
	}
	switch Class(a, b) {
	case LinkLocal:
		return DistanceZone
	case LinkRegional:
		return DistanceRegion
	default:
		return DistanceWAN
	}
}

// Partition cuts the named regions off from the rest of the topology:
// traffic within the named set (and within the remainder) still flows,
// but nothing crosses between the two sides until Heal. A second call
// replaces the previous cut.
func (t *Topology) Partition(regions ...string) {
	t.mu.Lock()
	t.cut = make(map[string]bool, len(regions))
	for _, r := range regions {
		t.cut[r] = true
	}
	t.mu.Unlock()
}

// Heal removes the partition: every path carries traffic again.
func (t *Topology) Heal() {
	t.mu.Lock()
	t.cut = map[string]bool{}
	t.mu.Unlock()
}

// Partitioned reports whether a partition is active.
func (t *Topology) Partitioned() bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.cut) > 0
}

// Reachable reports whether a and b are on the same side of the
// current partition (always true on a healed topology).
func (t *Topology) Reachable(a, b Locality) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.reachableLocked(a, b)
}

// reachableLocked is Reachable under t.mu.
func (t *Topology) reachableLocked(a, b Locality) bool {
	return t.cut[a.Region] == t.cut[b.Region]
}
