package gateway

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/dataservice"
	"repro/internal/netsim"
	"repro/internal/telemetry"
	"repro/internal/uddi"
	"repro/internal/vclock"
)

// LeaseServicePrefix namespaces per-session ownership leases in the
// UDDI registry: session "s" is governed by lease "gwsess:s".
const LeaseServicePrefix = "gwsess:"

// DefaultLeaseTTL is the ownership lease TTL when Config.LeaseTTL is
// zero. Ownership changes are pushed through TransferLease (which
// works on live leases), so the TTL only matters for crash recovery of
// the gateway itself; a few seconds keeps the registry rows fresh.
const DefaultLeaseTTL = 3 * time.Second

// maxDispatchAttempts bounds the internal re-route loop. Two attempts
// handle the common case (owner died, retry on the promoted standby);
// the margin covers a second membership change racing the retry.
const maxDispatchAttempts = 4

// LeaseAPI is the slice of the UDDI lease surface the gateway needs:
// control-plane ownership moves. Satisfied by *uddi.Registry
// (in-process) and *uddi.Proxy (SOAP).
type LeaseAPI interface {
	TransferLease(service, holder string, ttl time.Duration, now time.Time) (uddi.Lease, error)
}

// Kind classifies a dispatched request.
type Kind string

// Request kinds.
const (
	// KindMutate applies a scene mutation to the session.
	KindMutate Kind = "mutate"
	// KindFrame renders one frame, reserving node render capacity
	// before dispatch.
	KindFrame Kind = "frame"
)

// Config configures a Gateway.
type Config struct {
	// Name labels the gateway's telemetry service (default "gw").
	Name string
	// Clock drives lease timestamps and latency measurement; required
	// for deterministic runs (defaults to the real clock).
	Clock vclock.Clock
	// Leases is the UDDI lease surface; required. Every ownership
	// change is stamped here before any node serves the new epoch.
	Leases LeaseAPI
	// Metrics receives gateway telemetry; share one registry with the
	// nodes so a single snapshot covers the fleet.
	Metrics *telemetry.Registry
	// Replicas is the ring's virtual-node count per member
	// (0 = DefaultRingReplicas).
	Replicas int
	// ReplicationFactor is how many replica copies each session keeps
	// beside its primary (0 = 1, PR 6's single ring-successor standby).
	ReplicationFactor int
	// Region is the gateway's own locality, the reference point for
	// reachability checks against Topology.
	Region string
	// Topology is the fleet's shared region map; nil means the flat
	// single-site fleet where every node is always reachable.
	Topology *netsim.Topology
	// QueueDepth bounds concurrently admitted dispatches
	// (0 = DefaultQueueDepth).
	QueueDepth int
	// LeaseTTL is the per-session ownership lease TTL
	// (0 = DefaultLeaseTTL).
	LeaseTTL time.Duration
}

// Request is one thin-client call routed through the gateway.
type Request struct {
	// Tenant is the fair-share accounting unit (a user or
	// organization); required.
	Tenant string
	// Session names the target session; required.
	Session string
	// Kind selects mutate or frame (default KindMutate).
	Kind Kind
	// Interactive requests may fill the whole admission queue;
	// background ones only half (PR 4 two-class semantics).
	Interactive bool
	// Deadline, when non-zero, declines already-expired work at the
	// door.
	Deadline time.Time
}

// Result reports a successful dispatch.
type Result struct {
	// Node is the data service that served the request.
	Node string
	// Version is the session's scene version after (mutate) or at
	// (frame) the request.
	Version uint64
}

// placement is one session's routing entry: the owning node, the lease
// epoch that ownership is stamped with, and the session's replica set —
// N mirrors at region-spread ring successors.
type placement struct {
	session  string
	tenant   string
	owner    string
	epoch    uint64
	replicas *dataservice.ReplicaSet
	// seeded flips once the replica set first reaches the target
	// factor; attaches after that are re-replication (replacing a lost
	// copy) and counted as such.
	seeded bool
}

// Gateway is the session-sharded front door: thin clients address
// sessions, the gateway addresses nodes. Placement is consistent
// hashing over the fleet; every ownership change round-trips through a
// UDDI lease transfer (epoch bump) before the new owner serves, so a
// deposed node can never split a session. Each session keeps a replica
// set of live mirrors at its ring successors, spread across regions
// when the fleet has them, so a node kill — or a whole region dropping
// off the map — promotes the most-caught-up reachable copy (in-region
// preferred) with the op-history ring intact, and subscribers resume
// gap-only.
type Gateway struct {
	cfg Config
	adm *admission

	mu         sync.Mutex
	ring       *Ring
	nodes      map[string]*Node
	placements map[string]*placement
}

// New creates a gateway with no nodes.
func New(cfg Config) (*Gateway, error) {
	if cfg.Leases == nil {
		return nil, fmt.Errorf("gateway: Config.Leases required")
	}
	if cfg.Name == "" {
		cfg.Name = "gw"
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry(cfg.Clock)
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = 1
	}
	return &Gateway{
		cfg:        cfg,
		adm:        newAdmission(cfg.Name, cfg.QueueDepth, cfg.Clock, cfg.Metrics),
		ring:       NewRing(cfg.Replicas),
		nodes:      map[string]*Node{},
		placements: map[string]*placement{},
	}, nil
}

// Telemetry returns the gateway's metrics registry.
func (g *Gateway) Telemetry() *telemetry.Registry { return g.cfg.Metrics }

// leaseService maps a session name to its UDDI lease row.
func leaseService(session string) string { return LeaseServicePrefix + session }

// reachableLocked reports whether the gateway can currently reach the
// node across the topology (always true on a flat fleet). Callers hold
// g.mu.
func (g *Gateway) reachableLocked(n *Node) bool {
	if g.cfg.Topology == nil {
		return true
	}
	return g.cfg.Topology.Reachable(netsim.ParseLocality(g.cfg.Region), netsim.ParseLocality(n.Region()))
}

// servableLocked reports whether the named node can serve requests
// routed by this gateway: joined, alive, and on this side of any
// partition. An unreachable node is handled exactly like a dead one —
// the difference only matters at heal time, when its state is still
// there to resume from. Callers hold g.mu.
func (g *Gateway) servableLocked(name string) bool {
	n := g.nodes[name]
	return n != nil && n.Alive() && g.reachableLocked(n)
}

// placeableLocked reports whether the named node may receive new work:
// servable and its storage is healthy. The distinction matters for a
// sick-disk node — still servable (its memory answers frames, its
// copies are promotion sources) but never placeable (no new primaries,
// no new replicas land on a disk that cannot commit). Callers hold
// g.mu.
func (g *Gateway) placeableLocked(name string) bool {
	return g.servableLocked(name) && !g.nodes[name].StorageDegraded()
}

// AddNode joins a node to the fleet and rebalances: consistent hashing
// moves ~1/N of the sessions onto it, each move lease-stamped.
func (g *Gateway) AddNode(n *Node) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes[n.Name()]; ok {
		return fmt.Errorf("gateway: node %q already joined", n.Name())
	}
	g.nodes[n.Name()] = n
	g.ring.Add(n.Name())
	g.rebalanceLocked()
	return nil
}

// NodeDown removes a node from the placement ring and rebalances its
// sessions away (promoting their replicas when the node is dead).
// Dispatch also self-heals — a failed call to a killed node triggers
// the same path — so calling NodeDown is an optimization, not a
// correctness requirement.
func (g *Gateway) NodeDown(name string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.ring.Has(name) {
		return
	}
	g.ring.Remove(name)
	g.rebalanceLocked()
}

// EvacuateNode drains a storage-degraded (or otherwise suspect) node:
// it leaves the placement ring and every session it owns moves to a
// healthy node through the same lease-transfer-first, epoch-fenced
// machinery a node death uses — except the copies promoted are the
// replicas' acked prefixes, never the sick node's possibly-phantom
// memory. Returns how many sessions moved. Idempotent: a node already
// drained returns 0.
func (g *Gateway) EvacuateNode(name string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.evacuateLocked(name)
}

// evacuateLocked is EvacuateNode's core. Callers hold g.mu.
func (g *Gateway) evacuateLocked(name string) int {
	if g.nodes[name] == nil {
		return 0
	}
	owned := func() int {
		c := 0
		for _, p := range g.placements {
			if p.owner == name {
				c++
			}
		}
		return c
	}
	before := owned()
	if !g.ring.Has(name) && before == 0 {
		return 0 // already drained
	}
	g.ring.Remove(name)
	g.rebalanceLocked()
	moved := before - owned()
	if moved > 0 {
		g.cfg.Metrics.Counter(g.cfg.Name, "sessions_evacuated_total", "").Add(int64(moved))
	}
	return moved
}

// SyncStorageHealth sweeps the fleet for nodes that have latched
// storage-degraded and drains any still holding ring membership or
// sessions. Dispatch already self-heals (the first failed write
// evacuates), so this sweep — called from a control loop or the load
// harness pacer — only shortens the window for sessions that had no
// write traffic to trip on. Returns the drained node names, sorted.
func (g *Gateway) SyncStorageHealth() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	var drained []string
	names := make([]string, 0, len(g.nodes))
	for name := range g.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !g.nodes[name].StorageDegraded() {
			continue
		}
		inRing := g.ring.Has(name)
		if g.evacuateLocked(name) > 0 || inRing {
			drained = append(drained, name)
		}
	}
	return drained
}

// TopologyChanged re-derives ring membership from current liveness and
// reachability — the hook a partition or heal event drives. Nodes that
// became unreachable leave the ring (their sessions promote onto
// surviving replicas); nodes that became reachable again rejoin and
// catch up gap-only through the rebalance.
func (g *Gateway) TopologyChanged() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for name := range g.nodes {
		if g.servableLocked(name) {
			g.ring.Add(name)
		} else {
			g.ring.Remove(name)
		}
	}
	g.rebalanceLocked()
}

// Node returns a joined node by name.
func (g *Gateway) Node(name string) (*Node, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, ok := g.nodes[name]
	return n, ok
}

// OpenSession places a new session for a tenant: ownership goes to the
// ring owner (lease-stamped), and the replica set is seeded at the
// region-spread ring successors.
func (g *Gateway) OpenSession(tenant, session string) error {
	if tenant == "" || session == "" {
		return fmt.Errorf("gateway: tenant and session required")
	}
	g.adm.register(tenant)
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.placements[session]; ok {
		return fmt.Errorf("gateway: session %q already open", session)
	}
	owner, ok := g.ring.Owner(session)
	if !ok {
		return fmt.Errorf("gateway: no nodes joined")
	}
	if !g.placeableLocked(owner) {
		return fmt.Errorf("gateway: ring owner %q not placeable", owner)
	}
	node := g.nodes[owner]
	lease, err := g.cfg.Leases.TransferLease(leaseService(session), owner, g.cfg.LeaseTTL, g.cfg.Clock.Now())
	if err != nil {
		return fmt.Errorf("gateway: lease session %q: %w", session, err)
	}
	sess, err := node.svc.CreateSession(session)
	if err != nil {
		return err
	}
	if err := node.startJournal(session, sess); err != nil {
		return err
	}
	node.StampEpoch(session, lease.Epoch)
	p := &placement{session: session, tenant: tenant, owner: owner, epoch: lease.Epoch}
	g.placements[session] = p
	g.ensureReplicasLocked(p)
	g.cfg.Metrics.Gauge(g.cfg.Name, "sessions_open", "").Set(int64(len(g.placements)))
	return nil
}

// Placement reports a session's current routing entry: the owner, the
// attached replica holders in attach order, and the ownership epoch.
func (g *Gateway) Placement(session string) (owner string, replicas []string, epoch uint64, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	p, ok := g.placements[session]
	if !ok {
		return "", nil, 0, false
	}
	if p.replicas != nil {
		replicas = p.replicas.Names()
	}
	return p.owner, replicas, p.epoch, true
}

// ReplicaAcks reports each attached replica's applied-through version
// for a session (the replication-lag observable).
func (g *Gateway) ReplicaAcks(session string) map[string]uint64 {
	g.mu.Lock()
	p, ok := g.placements[session]
	var rs *dataservice.ReplicaSet
	if ok {
		rs = p.replicas
	}
	g.mu.Unlock()
	if rs == nil {
		return nil
	}
	return rs.Acked()
}

// Placements returns the owner of every open session (for balance
// accounting and the fleet dashboard).
func (g *Gateway) Placements() map[string]string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]string, len(g.placements))
	for s, p := range g.placements {
		out[s] = p.owner
	}
	return out
}

// Route resolves a session to its live owning node and lease epoch,
// self-healing placement if the recorded owner has died or dropped off
// the reachable side of a partition. Socket-serving front ends use this
// to pick the data service a thin client should stream from.
func (g *Gateway) Route(session string) (*Node, uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.routeHealthyLocked(session)
}

// routeHealthyLocked returns the session's owner if servable; if the
// owner has died (or a partition cut it off) it removes it from the
// ring, rebalances (promoting replicas), and returns the new owner.
// Callers hold g.mu.
func (g *Gateway) routeHealthyLocked(session string) (*Node, uint64, error) {
	p, ok := g.placements[session]
	if !ok {
		return nil, 0, fmt.Errorf("gateway: unknown session %q", session)
	}
	if g.servableLocked(p.owner) {
		return g.nodes[p.owner], p.epoch, nil
	}
	// The recorded owner is gone: heal the ring and re-place. This is
	// the detection path when nobody called NodeDown — the first
	// failed dispatch lands here.
	if g.ring.Has(p.owner) {
		g.ring.Remove(p.owner)
		g.rebalanceLocked()
	}
	if !g.servableLocked(p.owner) {
		return nil, 0, fmt.Errorf("gateway: no live node for session %q", session)
	}
	return g.nodes[p.owner], p.epoch, nil
}

// Dispatch routes one request to the session's owning node, reserving
// render capacity first for frames. Node deaths and ownership moves
// mid-flight are absorbed by an internal re-route loop — the client
// sees a result or a typed decline, never a node failure.
func (g *Gateway) Dispatch(ctx context.Context, req Request) (Result, error) {
	if req.Session == "" || req.Tenant == "" {
		return Result{}, fmt.Errorf("gateway: request needs tenant and session")
	}
	if req.Kind == "" {
		req.Kind = KindMutate
	}
	release, err := g.adm.admit(req.Tenant, req.Interactive, req.Deadline)
	if err != nil {
		return Result{}, err
	}
	start := g.cfg.Clock.Now()
	defer func() { release(g.cfg.Clock.Now().Sub(start)) }()

	for attempt := 0; attempt < maxDispatchAttempts; attempt++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
		node, epoch, rerr := g.Route(req.Session)
		if rerr != nil {
			return Result{}, rerr
		}
		var version uint64
		var derr error
		switch req.Kind {
		case KindFrame:
			rel, resErr := node.reserve()
			if errors.Is(resErr, errNoCapacity) {
				g.cfg.Metrics.Counter(g.cfg.Name, "declined_total", ReasonCapacity).Inc()
				return Result{}, &ErrDeclined{Tenant: req.Tenant, Reason: ReasonCapacity, RetryAfter: g.adm.retryAfter()}
			}
			if resErr != nil {
				derr = resErr // node died between route and reserve
				break
			}
			version, derr = node.RenderFrame(req.Session, epoch)
			rel()
		case KindMutate:
			version, derr = node.ApplyLoadOp(req.Session, epoch)
		default:
			return Result{}, fmt.Errorf("gateway: unknown request kind %q", req.Kind)
		}
		if derr == nil {
			if req.Kind == KindFrame {
				g.cfg.Metrics.Counter(g.cfg.Name, "requests_total", "frame").Inc()
				g.cfg.Metrics.Histogram(g.cfg.Name, "dispatch_latency_ns", "frame").Observe(g.cfg.Clock.Now().Sub(start))
			} else {
				g.cfg.Metrics.Counter(g.cfg.Name, "requests_total", "mutate").Inc()
				g.cfg.Metrics.Histogram(g.cfg.Name, "dispatch_latency_ns", "mutate").Observe(g.cfg.Clock.Now().Sub(start))
			}
			return Result{Node: node.Name(), Version: version}, nil
		}
		if errors.Is(derr, ErrStorageDegraded) {
			// The owner's disk went sick under this very request: the op
			// touched only the owner's memory — never acked, never
			// replicated. Evacuate the node's sessions onto healthy
			// replicas and retry against the promoted successor, which
			// commits the op exactly once. Like a node death, a sick
			// disk is a routing fault, not a client error.
			g.EvacuateNode(node.Name())
			g.cfg.Metrics.Counter(g.cfg.Name, "dispatch_retries_total", "").Inc()
			continue
		}
		if errors.Is(derr, ErrNodeDown) || errors.Is(derr, ErrStaleEpoch) {
			// Routing fault: the placement healed (or is about to) —
			// retry against the current owner.
			g.cfg.Metrics.Counter(g.cfg.Name, "dispatch_retries_total", "").Inc()
			continue
		}
		return Result{}, derr
	}
	return Result{}, fmt.Errorf("gateway: dispatch for session %q exhausted %d attempts", req.Session, maxDispatchAttempts)
}

// retryAfter exposes the admission EWMA drain estimate for capacity
// declines.
func (a *admission) retryAfter() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.retryAfterLocked()
}

// rebalanceLocked re-derives every session's desired owner and moves
// the strays: lease transfer first (epoch bump), then state handoff.
// When a session's owner is dead or unreachable, the desired owner is
// not the bare ring successor but the *most-caught-up servable replica*
// (in-region preferred) — on a flat single-region fleet the two
// coincide, because replicas sit at ring successors and stay fully
// caught up. Callers hold g.mu.
func (g *Gateway) rebalanceLocked() {
	sessions := make([]string, 0, len(g.placements))
	for s := range g.placements {
		sessions = append(sessions, s)
	}
	sort.Strings(sessions)
	moved := 0
	for _, s := range sessions {
		p := g.placements[s]
		desired, ok := g.ring.Owner(s)
		if !ok {
			continue // no members: placements freeze until a node joins
		}
		if !g.servableLocked(p.owner) && p.replicas != nil {
			prefer := g.cfg.Region
			if old := g.nodes[p.owner]; old != nil {
				prefer = old.Region()
			}
			// The next owner must be placeable, not merely servable: a
			// sick-disk replica holder can donate its copy but must not
			// become primary for new writes.
			if best, bok := p.replicas.Best(prefer, func(name string) bool {
				return g.placeableLocked(name)
			}); bok {
				desired = best
			}
		}
		if desired != p.owner {
			if err := g.movePlacementLocked(p, desired); err != nil {
				g.cfg.Metrics.Counter(g.cfg.Name, "rebalance_errors_total", "").Inc()
				continue
			}
			moved++
		}
		g.ensureReplicasLocked(p)
	}
	if moved > 0 {
		g.cfg.Metrics.Counter(g.cfg.Name, "sessions_rebalanced_total", "").Add(int64(moved))
	}
	g.observeOwnershipLocked()
}

// observeOwnershipLocked mirrors per-node session counts into
// telemetry. Callers hold g.mu.
func (g *Gateway) observeOwnershipLocked() {
	counts := map[string]int{}
	for _, p := range g.placements {
		counts[p.owner]++
	}
	for name := range g.nodes {
		g.cfg.Metrics.Gauge(g.cfg.Name, "sessions_owned", telemetry.PeerLabel(name)).Set(int64(counts[name]))
	}
}

// movePlacementLocked transfers one session to a new owner. Order
// matters: the lease transfer commits the move (epoch bump) before any
// state lands on the target, so even a crash mid-move cannot leave two
// nodes both believing they own the epoch. State handoff prefers the
// cheapest path that preserves the op-history ring: promote the
// target's own replica when it has one, otherwise adopt whatever stale
// copy the target holds gap-only, falling back to a snapshot only when
// the history cannot cover the gap. One exception to "cheapest": a
// storage-degraded owner's memory may hold a phantom op — applied
// locally the instant its journal faulted, never acked or fanned out —
// so the handoff prefers a replica's acked prefix over mirror-adopting
// from a degraded owner, and only falls back to the degraded memory
// when no replica survives (better a phantom than an empty scene).
// Callers hold g.mu.
func (g *Gateway) movePlacementLocked(p *placement, to string) error {
	if !g.placeableLocked(to) {
		return fmt.Errorf("gateway: move target %q not placeable", to)
	}
	newNode := g.nodes[to]
	lease, err := g.cfg.Leases.TransferLease(leaseService(p.session), to, g.cfg.LeaseTTL, g.cfg.Clock.Now())
	if err != nil {
		return fmt.Errorf("gateway: lease transfer %q -> %q: %w", p.session, to, err)
	}
	oldNode := g.nodes[p.owner]
	oldServable := g.servableLocked(p.owner)
	oldPlaceable := g.placeableLocked(p.owner)
	switch {
	case p.replicas != nil && p.replicas.Has(to):
		// The target already follows the session in the replica set:
		// promote its mirror. The backup session keeps the op-history
		// ring it accumulated while mirroring, so reconnecting
		// subscribers resume gap-only instead of re-snapshotting.
		m, _ := p.replicas.Take(to)
		promoted, perr := m.Promote()
		if perr != nil {
			return perr
		}
		g.cfg.Metrics.Counter(g.cfg.Name, "promotions_total", "").Inc()
		// The remaining members still follow the deposed primary;
		// detach them (their copies freeze) and let ensureReplicas
		// re-attach them to the new primary gap-only.
		p.replicas.DetachAll()
		p.replicas = nil
		p.seeded = false
		if jerr := newNode.startJournal(p.session, promoted); jerr != nil {
			return jerr
		}
	case oldPlaceable:
		// Planned move off a live, healthy owner: mirror-adopt onto the
		// target — gap-only when the target still holds a resumable
		// copy, full snapshot otherwise — then promote immediately.
		oldSess, ok := oldNode.svc.Session(p.session)
		if !ok {
			return fmt.Errorf("gateway: session %q missing on owner %q", p.session, p.owner)
		}
		m, _, merr := dataservice.MirrorSessionSince(oldSess, newNode.svc)
		if merr != nil {
			return merr
		}
		promoted, perr := m.Promote()
		if perr != nil {
			return perr
		}
		if jerr := newNode.startJournal(p.session, promoted); jerr != nil {
			return jerr
		}
	case p.replicas != nil:
		// Owner dead (or degraded) and the target holds no replica
		// (several membership changes landed at once): promote the best
		// surviving copy, then hand the target its state. The donor only
		// needs to be servable — a sick-disk holder's memory is a valid
		// acked-prefix source even though it can never own again.
		best, bok := p.replicas.Best(newNode.Region(), func(name string) bool {
			return g.servableLocked(name)
		})
		if !bok {
			p.replicas.DetachAll()
			p.replicas = nil
			p.seeded = false
			return g.reopenLostLocked(p, newNode, lease.Epoch, to)
		}
		m, _ := p.replicas.Take(best)
		promoted, perr := m.Promote()
		if perr != nil {
			return perr
		}
		g.cfg.Metrics.Counter(g.cfg.Name, "promotions_total", "").Inc()
		p.replicas.DetachAll()
		p.replicas = nil
		p.seeded = false
		m2, _, merr := dataservice.MirrorSessionSince(promoted, newNode.svc)
		if merr != nil {
			return merr
		}
		adopted, perr := m2.Promote()
		if perr != nil {
			return perr
		}
		if jerr := newNode.startJournal(p.session, adopted); jerr != nil {
			return jerr
		}
	case oldServable:
		// Degraded owner with no replicas at all (replication never
		// seeded — a single-node fleet, say): mirror-adopt its memory as
		// a last resort. The copy may carry a phantom op past the acked
		// prefix, but it beats reopening the session empty.
		oldSess, ok := oldNode.svc.Session(p.session)
		if !ok {
			return fmt.Errorf("gateway: session %q missing on owner %q", p.session, p.owner)
		}
		m, _, merr := dataservice.MirrorSessionSince(oldSess, newNode.svc)
		if merr != nil {
			return merr
		}
		promoted, perr := m.Promote()
		if perr != nil {
			return perr
		}
		if jerr := newNode.startJournal(p.session, promoted); jerr != nil {
			return jerr
		}
	default:
		// Owner dead with no replicas (single-node fleet): the scene
		// state is gone. Re-open empty rather than wedge the session
		// forever, and account for the loss.
		return g.reopenLostLocked(p, newNode, lease.Epoch, to)
	}
	prevOwner := p.owner
	newNode.StampEpoch(p.session, lease.Epoch)
	p.owner = to
	p.epoch = lease.Epoch
	if oldNode != nil && prevOwner != to && oldServable {
		// A live owner was drained deliberately. If it is about to come
		// straight back as a replica target (a heal moving the session
		// home demotes the partition-era primary to its cross-region
		// copy), keep its state and only release the epoch stamp —
		// ensureReplicas re-attaches the copy gap-only instead of
		// re-seeding a snapshot over the WAN. Otherwise drop the copy —
		// and a degraded owner's copy is always dropped: it may carry
		// the phantom op, and replicaTargets never picks a sick disk.
		// A dead or partitioned owner is left untouched either way: we
		// cannot reach it, and the copy it strands is exactly what a
		// post-heal rebalance resumes from.
		keep := false
		for _, tgt := range g.replicaTargetsLocked(p) {
			if tgt == prevOwner {
				keep = true
			}
		}
		if keep {
			oldNode.StampEpoch(p.session, 0)
		} else {
			oldNode.DropSession(p.session)
		}
	}
	return nil
}

// reopenLostLocked re-creates a session whose every copy is gone —
// empty, accounted as lost. Callers hold g.mu.
func (g *Gateway) reopenLostLocked(p *placement, newNode *Node, epoch uint64, to string) error {
	newNode.svc.RemoveSession(p.session)
	fresh, cerr := newNode.svc.CreateSession(p.session)
	if cerr != nil {
		return cerr
	}
	if jerr := newNode.startJournal(p.session, fresh); jerr != nil {
		return jerr
	}
	g.cfg.Metrics.Counter(g.cfg.Name, "sessions_lost_total", "").Inc()
	newNode.StampEpoch(p.session, epoch)
	p.owner = to
	p.epoch = epoch
	return nil
}

// replicaTargetsLocked picks the session's desired replica holders:
// the first ReplicationFactor distinct servable ring successors, with
// region spread forced when the fleet has regions — the walk's first
// in-owner-region candidate and first out-of-region candidate are
// always included (when they exist), so a session survives both a node
// loss and a whole-region loss. On a flat fleet this degenerates to
// the plain successor walk, whose first entry is PR 6's standby.
// Callers hold g.mu.
func (g *Gateway) replicaTargetsLocked(p *placement) []string {
	factor := g.cfg.ReplicationFactor
	ownerRegion := ""
	if n := g.nodes[p.owner]; n != nil {
		ownerRegion = n.Region()
	}
	var cands []string
	for _, m := range g.ring.Successors(p.session, len(g.nodes)) {
		// Placeable, not just servable: new replicas never land on a
		// sick disk — re-replication after an evacuation must restore
		// factor N on nodes that can actually keep the copies.
		if m != p.owner && g.placeableLocked(m) {
			cands = append(cands, m)
		}
	}
	if len(cands) <= factor {
		return cands
	}
	firstIn, firstOut := "", ""
	for _, c := range cands {
		if netsim.CrossRegion(ownerRegion, g.nodes[c].Region()) {
			if firstOut == "" {
				firstOut = c
			}
		} else if firstIn == "" {
			firstIn = c
		}
	}
	picked := make([]string, 0, factor)
	chosen := map[string]bool{}
	for _, guaranteed := range []string{firstIn, firstOut} {
		if guaranteed != "" && len(picked) < factor && !chosen[guaranteed] {
			picked = append(picked, guaranteed)
			chosen[guaranteed] = true
		}
	}
	for _, c := range cands {
		if len(picked) >= factor {
			break
		}
		if !chosen[c] {
			picked = append(picked, c)
			chosen[c] = true
		}
	}
	return picked
}

// ensureReplicasLocked converges the session's replica set on its
// desired targets: detach members that died, dropped off the reachable
// side, or are no longer wanted; attach the missing ones, resuming
// gap-only from any copy the target still holds. Attaches after the
// set first reached full strength count as re-replication. Callers
// hold g.mu.
func (g *Gateway) ensureReplicasLocked(p *placement) {
	if !g.servableLocked(p.owner) {
		return
	}
	primary, ok := g.nodes[p.owner].svc.Session(p.session)
	if !ok {
		return
	}
	if p.replicas == nil || p.replicas.Primary() != primary {
		if p.replicas != nil {
			p.replicas.DetachAll()
		}
		p.replicas = dataservice.NewReplicaSet(primary)
		p.seeded = false
	}
	targets := g.replicaTargetsLocked(p)
	want := make(map[string]bool, len(targets))
	for _, tgt := range targets {
		want[tgt] = true
	}
	for _, name := range p.replicas.Names() {
		if !want[name] || !g.servableLocked(name) {
			p.replicas.Detach(name)
		}
	}
	for _, tgt := range targets {
		if p.replicas.Has(tgt) {
			continue
		}
		node := g.nodes[tgt]
		if _, err := p.replicas.Attach(tgt, node.Region(), node.svc); err != nil {
			g.cfg.Metrics.Counter(g.cfg.Name, "mirror_errors_total", "").Inc()
			continue
		}
		// A rejoining node may still carry an epoch stamp from a
		// primaryship it held before a partition; clear it so only the
		// current owner can serve dispatches for the session.
		node.StampEpoch(p.session, 0)
		g.cfg.Metrics.Counter(g.cfg.Name, "mirror_seeds_total", "").Inc()
		if p.seeded {
			g.cfg.Metrics.Counter(g.cfg.Name, "rereplications_total", "").Inc()
		}
	}
	if !p.seeded && p.replicas.Size() >= len(targets) && len(targets) > 0 {
		p.seeded = true
	}
	g.observeReplicationLocked(p, primary)
}

// observeReplicationLocked publishes each replica's version delta
// behind the primary as the per-node replication-lag gauge. Callers
// hold g.mu.
func (g *Gateway) observeReplicationLocked(p *placement, primary *dataservice.Session) {
	if p.replicas == nil {
		return
	}
	version := primary.Version()
	for name, acked := range p.replicas.Acked() {
		lag := int64(0)
		if version > acked {
			lag = int64(version - acked)
		}
		g.cfg.Metrics.Gauge(g.cfg.Name, "replication_lag", telemetry.PeerLabel(name)).Set(lag)
	}
}
