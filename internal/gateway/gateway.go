package gateway

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// DefaultLeaseTTL is the per-session ownership lease TTL. Ownership
// changes are pushed through TransferLease (which works on live
// leases), so the TTL only matters for crash recovery of the gateway
// itself; a few seconds keeps the registry rows fresh.
const DefaultLeaseTTL = 3 * time.Second

// serviceName labels the gateway tier's telemetry, its nodes' included.
const serviceName = "gw"

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
	drained    map[string]bool // nodes NodeDown or EvacuateNode named
	placements map[string]*placement
}

// New creates a gateway with no nodes.
func New(cfg Config) (*Gateway, error) {
	if cfg.Leases == nil {
		return nil, fmt.Errorf("gateway: Config.Leases required")
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry(cfg.Clock)
	}
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = 1
	}
	return &Gateway{
		cfg:        cfg,
		adm:        newAdmission(serviceName, cfg.QueueDepth, cfg.Clock, cfg.Metrics),
		ring:       NewRing(cfg.Replicas),
		nodes:      map[string]*Node{},
		drained:    map[string]bool{},
		placements: map[string]*placement{},
	}, nil
}

// Telemetry returns the gateway's metrics registry.
func (g *Gateway) Telemetry() *telemetry.Registry { return g.cfg.Metrics }

// leaseService maps a session name to its UDDI lease row.
func leaseService(session string) string { return LeaseServicePrefix + session }

// factsLocked gathers what the decisions in decide.go read about the
// named node: liveness, reachability across the topology (always true
// on a flat fleet), storage health and the drain mark. Callers hold
// g.mu.
func (g *Gateway) factsLocked(name string) nodeFacts {
	n := g.nodes[name]
	if n == nil {
		return nodeFacts{name: name}
	}
	return nodeFacts{
		name: name, region: n.Region(), alive: n.Alive(), degraded: n.StorageDegraded(), drained: g.drained[name],
		reachable: g.cfg.Topology == nil ||
			g.cfg.Topology.Reachable(netsim.ParseLocality(g.cfg.Region), netsim.ParseLocality(n.Region())),
	}
}

// syncRingLocked makes the ring's membership equal nodeFacts.ringMember
// over the joined nodes; nothing else edits the ring. Callers hold g.mu.
func (g *Gateway) syncRingLocked() {
	for name := range g.nodes {
		if g.factsLocked(name).ringMember() {
			g.ring.Add(name)
		} else {
			g.ring.Remove(name)
		}
	}
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
	g.rebalanceLocked()
	return nil
}

// NodeDown drains a node: it leaves the placement ring and its sessions
// rebalance away (promoting their replicas when the node is dead).
// Dispatch also self-heals — a failed call to a killed node triggers
// the same path — so calling NodeDown is an optimization, not a
// correctness requirement. The drain is permanent: a live drained node
// stays off the ring through every later event (nodeFacts.ringMember).
func (g *Gateway) NodeDown(name string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.ring.Has(name) {
		return
	}
	g.drained[name] = true
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
	return g.evacuateLocked(name)[name]
}

// evacuateLocked drains each named node still on the ring or still
// owning sessions, in one rebalance, and returns how many sessions moved
// off each; nil when none needed it. Callers hold g.mu.
func (g *Gateway) evacuateLocked(names ...string) map[string]int {
	owned, moved := g.ownedLocked(), map[string]int{}
	for _, name := range names {
		if g.ring.Has(name) || owned[name] > 0 {
			g.drained[name] = true
			moved[name] = 0
		}
	}
	if len(moved) == 0 {
		return nil
	}
	all := g.rebalanceLocked()
	for name := range moved {
		moved[name] = all[name]
		if all[name] > 0 {
			g.cfg.Metrics.Counter(serviceName, "sessions_evacuated_total", "").Add(int64(all[name]))
		}
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
	var degraded, drained []string
	for name, n := range g.nodes {
		if n.StorageDegraded() {
			degraded = append(degraded, name)
		}
	}
	for name := range g.evacuateLocked(degraded...) {
		drained = append(drained, name)
	}
	sort.Strings(drained)
	return drained
}

// TopologyChanged re-derives ring membership from the current facts —
// the hook a partition or heal event drives. Nodes that became
// unreachable leave the ring (their sessions promote onto surviving
// replicas); nodes that became reachable again rejoin and catch up
// gap-only through the rebalance.
func (g *Gateway) TopologyChanged() {
	g.mu.Lock()
	defer g.mu.Unlock()
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
	if !g.factsLocked(owner).placeable() {
		return fmt.Errorf("gateway: ring owner %q not placeable", owner)
	}
	node := g.nodes[owner]
	lease, err := g.cfg.Leases.TransferLease(leaseService(session), owner, DefaultLeaseTTL, g.cfg.Clock.Now())
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
	p := &placement{session: session, owner: owner, epoch: lease.Epoch}
	g.placements[session] = p
	g.ensureReplicasLocked(p)
	g.cfg.Metrics.Gauge(serviceName, "sessions_open", "").Set(int64(len(g.placements)))
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
// self-healing placement (a rebalance, promoting replicas) if the
// recorded owner has died or dropped off the reachable side of a
// partition. Socket-serving front ends use this to pick the data service
// a thin client should stream from.
func (g *Gateway) Route(session string) (*Node, uint64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	p, ok := g.placements[session]
	if !ok {
		return nil, 0, fmt.Errorf("gateway: unknown session %q", session)
	}
	if g.factsLocked(p.owner).servable() {
		return g.nodes[p.owner], p.epoch, nil
	}
	// The recorded owner is gone: heal the ring and re-place. This is
	// the detection path when nobody called NodeDown — the first
	// failed dispatch lands here.
	if g.ring.Has(p.owner) {
		g.rebalanceLocked()
	}
	if !g.factsLocked(p.owner).servable() {
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
				g.cfg.Metrics.Counter(serviceName, "declined_total", ReasonCapacity).Inc()
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
				g.cfg.Metrics.Counter(serviceName, "requests_total", "frame").Inc()
				g.cfg.Metrics.Histogram(serviceName, "dispatch_latency_ns", "frame").Observe(g.cfg.Clock.Now().Sub(start))
			} else {
				g.cfg.Metrics.Counter(serviceName, "requests_total", "mutate").Inc()
				g.cfg.Metrics.Histogram(serviceName, "dispatch_latency_ns", "mutate").Observe(g.cfg.Clock.Now().Sub(start))
			}
			return Result{Node: node.Name(), Version: version}, nil
		}
		switch {
		case errors.Is(derr, ErrStorageDegraded):
			// The owner's disk went sick under this very request: the op
			// touched only the owner's memory — never acked, never
			// replicated. Evacuate the node's sessions onto healthy
			// replicas and retry against the promoted successor, which
			// commits the op exactly once. Like a node death, a sick
			// disk is a routing fault, not a client error.
			g.EvacuateNode(node.Name())
		case errors.Is(derr, ErrNodeDown), errors.Is(derr, ErrStaleEpoch):
			// Routing fault: the placement healed (or is about to) —
			// retry against the current owner.
		default:
			return Result{}, derr
		}
		g.cfg.Metrics.Counter(serviceName, "dispatch_retries_total", "").Inc()
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

// rebalanceLocked is what every membership event comes down to once the
// fact behind it has changed: sync the ring, then re-derive every
// session's desired owner and move the strays — lease transfer first
// (epoch bump), then state handoff.
// When a session's owner is dead or unreachable, the desired owner is
// not the bare ring successor but the *most-caught-up servable replica*
// (in-region preferred) — on a flat single-region fleet the two
// coincide, because replicas sit at ring successors and stay fully
// caught up. Returns how many sessions moved off each previous owner.
// Callers hold g.mu.
func (g *Gateway) rebalanceLocked() map[string]int {
	g.syncRingLocked()
	sessions := make([]string, 0, len(g.placements))
	for s := range g.placements {
		sessions = append(sessions, s)
	}
	sort.Strings(sessions)
	moved, total := map[string]int{}, 0
	for _, s := range sessions {
		p := g.placements[s]
		desired, ok := g.ring.Owner(s)
		if !ok {
			continue // no members: placements freeze until a node joins
		}
		if owner := g.factsLocked(p.owner); !owner.servable() && p.replicas != nil {
			// The next owner must be placeable, not merely servable: a
			// sick-disk replica holder can donate its copy but must not
			// become primary for new writes.
			if best, bok := p.replicas.Best(owner.region, func(name string) bool {
				return g.factsLocked(name).placeable()
			}); bok {
				desired = best
			}
		}
		if prev := p.owner; desired != prev {
			if err := g.movePlacementLocked(p, desired); err != nil {
				// A failed hand-off can be news (a target found sick latches
				// degraded): the rest of the pass must not ask a stale ring.
				g.cfg.Metrics.Counter(serviceName, "rebalance_errors_total", "").Inc()
				g.syncRingLocked()
				continue
			}
			moved[prev]++
			total++
		}
		g.ensureReplicasLocked(p)
	}
	if total > 0 {
		g.cfg.Metrics.Counter(serviceName, "sessions_rebalanced_total", "").Add(int64(total))
	}
	owned := g.ownedLocked()
	for name := range g.nodes {
		g.cfg.Metrics.Gauge(serviceName, "sessions_owned", telemetry.PeerLabel(name)).Set(int64(owned[name]))
	}
	return moved
}

// ownedLocked counts the sessions each node owns. Callers hold g.mu.
func (g *Gateway) ownedLocked() map[string]int {
	owned := make(map[string]int, len(g.nodes))
	for _, p := range g.placements {
		owned[p.owner]++
	}
	return owned
}

// movePlacementLocked transfers one session to a new owner. Order
// matters: the lease transfer commits the move (epoch bump) before any
// state lands on the target, so even a crash mid-move cannot leave two
// nodes both believing they own the epoch. The state then comes from
// wherever handoffSource says, and reaches the target gap-only when the
// target still holds a resumable copy, by snapshot only when the
// op-history ring cannot cover the gap. Callers hold g.mu.
func (g *Gateway) movePlacementLocked(p *placement, to string) error {
	target := g.factsLocked(to)
	if !target.placeable() {
		return fmt.Errorf("gateway: move target %q not placeable", to)
	}
	newNode := g.nodes[to]
	lease, err := g.cfg.Leases.TransferLease(leaseService(p.session), to, DefaultLeaseTTL, g.cfg.Clock.Now())
	if err != nil {
		return fmt.Errorf("gateway: lease transfer %q -> %q: %w", p.session, to, err)
	}
	prev, oldNode := g.factsLocked(p.owner), g.nodes[p.owner]
	hasReplica, survivor := false, ""
	if p.replicas != nil {
		hasReplica = p.replicas.Has(to)
		// A donor only needs to be servable — a sick-disk holder's memory
		// is a valid acked prefix even though it can never own again.
		survivor, _ = p.replicas.Best(target.region, func(name string) bool {
			return g.factsLocked(name).servable()
		})
	}
	from, mirror := handoffSource(to, hasReplica, prev, survivor)
	var src *dataservice.Session
	switch {
	case mirror:
		m, _ := p.replicas.Take(from)
		if src, err = m.Promote(); err != nil {
			return err
		}
		g.cfg.Metrics.Counter(serviceName, "promotions_total", "").Inc()
	case from != "":
		var ok bool
		if src, ok = oldNode.svc.Session(p.session); !ok {
			return fmt.Errorf("gateway: session %q missing on owner %q", p.session, p.owner)
		}
	default:
		// Every copy is gone: re-open empty on the target rather than
		// wedge the session forever.
		newNode.svc.RemoveSession(p.session)
		if src, err = newNode.svc.CreateSession(p.session); err != nil {
			return err
		}
	}
	if from != prev.name && p.replicas != nil {
		// The owner is deposed and the remaining members still follow
		// it; detach them (their copies freeze) and let ensureReplicas
		// re-attach them to the new primary gap-only.
		p.replicas.DetachAll()
		p.replicas = nil
		p.seeded = false
	}
	if from != "" && from != to {
		m, _, merr := dataservice.MirrorSessionSince(src, newNode.svc)
		if merr != nil {
			return merr
		}
		if src, err = m.Promote(); err != nil {
			return err
		}
	}
	if err := newNode.startJournal(p.session, src); err != nil {
		return err
	}
	if from == "" {
		g.cfg.Metrics.Counter(serviceName, "sessions_lost_total", "").Inc()
	}
	newNode.StampEpoch(p.session, lease.Epoch)
	p.owner = to
	p.epoch = lease.Epoch
	if prev.servable() {
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
		if slices.Contains(g.replicaTargetsLocked(p), prev.name) {
			oldNode.StampEpoch(p.session, 0)
		} else {
			oldNode.DropSession(p.session)
		}
	}
	return nil
}

// replicaTargetsLocked gathers the session's ring successors and asks
// replicaTargets for its desired replica holders. Callers hold g.mu.
func (g *Gateway) replicaTargetsLocked(p *placement) []string {
	succ := g.ring.Successors(p.session, len(g.nodes))
	walk := make([]nodeFacts, len(succ))
	for i, name := range succ {
		walk[i] = g.factsLocked(name)
	}
	return replicaTargets(g.cfg.ReplicationFactor, g.factsLocked(p.owner), walk)
}

// ensureReplicasLocked converges the session's replica set on its
// desired targets: detach members that died, dropped off the reachable
// side, or are no longer wanted; attach the missing ones, resuming
// gap-only from any copy the target still holds. Attaches after the
// set first reached full strength count as re-replication. Callers
// hold g.mu.
func (g *Gateway) ensureReplicasLocked(p *placement) {
	if !g.factsLocked(p.owner).servable() {
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
	for _, name := range p.replicas.Names() {
		if !slices.Contains(targets, name) || !g.factsLocked(name).servable() {
			p.replicas.Detach(name)
		}
	}
	for _, tgt := range targets {
		if p.replicas.Has(tgt) {
			continue
		}
		node := g.nodes[tgt]
		if _, err := p.replicas.Attach(tgt, node.Region(), node.svc); err != nil {
			g.cfg.Metrics.Counter(serviceName, "mirror_errors_total", "").Inc()
			continue
		}
		// A rejoining node may still carry an epoch stamp from a
		// primaryship it held before a partition; clear it so only the
		// current owner can serve dispatches for the session.
		node.StampEpoch(p.session, 0)
		g.cfg.Metrics.Counter(serviceName, "mirror_seeds_total", "").Inc()
		if p.seeded {
			g.cfg.Metrics.Counter(serviceName, "rereplications_total", "").Inc()
		}
	}
	if !p.seeded && p.replicas.Size() >= len(targets) && len(targets) > 0 {
		p.seeded = true
	}
	// Each replica's version delta behind the primary is the per-node
	// replication-lag gauge.
	version := primary.Version()
	for name, acked := range p.replicas.Acked() {
		lag := int64(0)
		if version > acked {
			lag = int64(version - acked)
		}
		g.cfg.Metrics.Gauge(serviceName, "replication_lag", telemetry.PeerLabel(name)).Set(lag)
	}
}
