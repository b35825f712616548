package gateway

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dataservice"
	"repro/internal/dataservice/wal"
	"repro/internal/mathx"
	"repro/internal/scene"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

// Node capacity/cost model. The render cost is the calibrated SGI-class
// off-screen figure the perf model uses for small tiles; the op cost is
// middleware fan-out latency. Both are modeled on the virtual clock, so
// a fleet-scale run is deterministic and takes milliseconds of wall
// time.
const (
	DefaultRenderSlots = 4
	DefaultRenderCost  = 25 * time.Millisecond
	DefaultOpCost      = 2 * time.Millisecond
)

// DefaultJournalCompactEvery bounds per-session journal segment growth
// on journal-backed nodes (NodeConfig.Journal set).
const DefaultJournalCompactEvery = 64

// ErrNodeDown is returned by node operations after Kill: the gateway
// treats it as a routing fault (retry after rebalance), never surfacing
// it to the client.
var ErrNodeDown = errors.New("gateway: node down")

// ErrStaleEpoch is returned when a request carries a lease epoch the
// node does not hold for that session — the session moved (or never
// lived here). Like ErrNodeDown it is gateway-internal: the dispatcher
// re-routes with the current placement and retries.
var ErrStaleEpoch = errors.New("gateway: stale session epoch")

// ErrStorageDegraded is returned by mutating node operations once the
// node's journal has faulted: the disk under it can no longer commit
// durably, so the node refuses further writes. Like ErrNodeDown it is
// gateway-internal — the dispatcher evacuates the node's sessions onto
// healthy replicas and retries, so the client never sees it. Unlike
// ErrNodeDown the node stays alive: its in-memory copies keep serving
// frames and remain valid promotion sources while the drain runs.
var ErrStorageDegraded = errors.New("gateway: node storage degraded")

// errNoCapacity is returned by reserve when all render slots are taken;
// the gateway converts it into a typed capacity decline.
var errNoCapacity = errors.New("gateway: no render capacity")

// NodeConfig configures a fleet node.
type NodeConfig struct {
	// Name identifies the node on the ring and in lease holder fields.
	Name string
	// Region is the node's locality ("region" or "region/zone"); empty
	// means the flat single-site fleet of earlier PRs.
	Region string
	// Clock drives modeled costs; required for deterministic runs.
	Clock vclock.Clock
	// Metrics receives node telemetry; a fleet shares one registry.
	Metrics *telemetry.Registry
	// RenderSlots is the render capacity reserved before dispatch
	// (0 = DefaultRenderSlots).
	RenderSlots int
	// OpCost is the modeled per-mutation middleware time
	// (0 = DefaultOpCost).
	OpCost time.Duration
	// Journal, when set, makes the node journal-backed: every session
	// it owns as primary commits its ops through a wal store from this
	// factory before acknowledging. Nil keeps the memory-only node of
	// earlier PRs. Replica mirrors are never journaled — durability is
	// the primary's job; the mirrors are the redundancy.
	Journal func(session string) wal.Store
}

// Node is one data service in the sharded fleet: the real
// dataservice.Service (sessions, mirrors, resume protocol) wrapped with
// the pieces the gateway shards over — liveness, render-capacity slots,
// and the lease epoch it holds for each session. Render and mutate
// calls charge modeled device time on the virtual clock, so capacity
// contention and tail latency emerge from the same calibrated costs the
// perf model uses rather than from wall-clock noise.
type Node struct {
	name    string
	region  string
	svc     *dataservice.Service
	clock   vclock.Clock
	metrics *telemetry.Registry
	opCost  time.Duration
	slots   int
	journal func(session string) wal.Store

	mu       sync.Mutex
	alive    bool
	degraded bool
	reserved int
	epochs   map[string]uint64
}

// NewNode creates a live node with a fresh data service on the shared
// clock and registry.
func NewNode(cfg NodeConfig) *Node {
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry(cfg.Clock)
	}
	if cfg.RenderSlots <= 0 {
		cfg.RenderSlots = DefaultRenderSlots
	}
	if cfg.OpCost <= 0 {
		cfg.OpCost = DefaultOpCost
	}
	return &Node{
		name:   cfg.Name,
		region: cfg.Region,
		svc: dataservice.New(dataservice.Config{
			Name:    cfg.Name,
			Region:  cfg.Region,
			Clock:   cfg.Clock,
			Metrics: cfg.Metrics,
		}),
		clock:   cfg.Clock,
		metrics: cfg.Metrics,
		opCost:  cfg.OpCost,
		slots:   cfg.RenderSlots,
		journal: cfg.Journal,
		alive:   true,
		epochs:  map[string]uint64{},
	}
}

// Name returns the node's fleet name.
func (n *Node) Name() string { return n.name }

// Region returns the node's configured locality (possibly empty).
func (n *Node) Region() string { return n.region }

// Service exposes the underlying data service (socket serving, mirror
// attachment).
func (n *Node) Service() *dataservice.Service { return n.svc }

// Alive reports liveness.
func (n *Node) Alive() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive
}

// Kill fails the node: every in-flight and future call returns
// ErrNodeDown. The service's in-memory state is deliberately left
// intact — like a network-partitioned host, the process may still hold
// its data, but the epoch fence guarantees it can never again serve an
// owned session.
func (n *Node) Kill() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.alive = false
}

// StorageDegraded reports whether the node's journal has faulted. A
// degraded node stays alive — it serves frames and its copies remain
// promotion sources — but accepts no further writes or placements.
func (n *Node) StorageDegraded() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.degraded
}

// markStorageDegraded latches the degraded state on the first journal
// fault and raises the per-node gauge the heartbeat reports from.
func (n *Node) markStorageDegraded() {
	n.mu.Lock()
	already := n.degraded
	n.degraded = true
	n.mu.Unlock()
	if !already {
		n.metrics.Gauge(serviceName, "storage_degraded", telemetry.PeerLabel(n.name)).Set(1)
	}
}

// startJournal attaches a durable journal to a session this node just
// became primary for (no-op on memory-only nodes). A store that cannot
// even open a journal marks the node degraded on the spot. A copy kept
// from an earlier term as primary (demoted to a replica, or stranded
// behind a partition) still holds that term's journal; the new term
// starts its own, from a checkpoint of the scene as promoted.
func (n *Node) startJournal(session string, sess *dataservice.Session) error {
	if n.journal == nil {
		return nil
	}
	_ = sess.StopJournal() // the stale term's segment is discarded either way
	if err := sess.StartJournal(n.journal(session), DefaultJournalCompactEvery); err != nil {
		n.markStorageDegraded()
		return fmt.Errorf("%w (%s): %w", ErrStorageDegraded, n.name, err)
	}
	return nil
}

// StampEpoch records the lease epoch under which this node owns a
// session. Requests carrying any other epoch are fenced off with
// ErrStaleEpoch.
func (n *Node) StampEpoch(session string, epoch uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.epochs[session] = epoch
}

// DropSession releases ownership: the session's journal is closed and
// the session and its epoch stamp are removed (idempotent).
func (n *Node) DropSession(session string) {
	n.mu.Lock()
	delete(n.epochs, session)
	n.mu.Unlock()
	if sess, ok := n.svc.Session(session); ok {
		// Close errors don't matter here: the copy is being discarded,
		// and on a sick disk the close is best-effort anyway.
		_ = sess.StopJournal()
	}
	n.svc.RemoveSession(session)
}

// check fences a request: the node must be alive and hold exactly the
// caller's epoch for the session.
func (n *Node) check(session string, epoch uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return fmt.Errorf("%w (%s)", ErrNodeDown, n.name)
	}
	if have := n.epochs[session]; have != epoch {
		return fmt.Errorf("%w (%s: session %q have %d, request %d)", ErrStaleEpoch, n.name, session, have, epoch)
	}
	return nil
}

// reserve takes one render slot, returning a release func. The gateway
// calls this *before* dispatching a frame — the EdgeComet-style
// reservation that keeps the render path queue-free: a frame either
// holds device capacity when it starts or is declined up front.
func (n *Node) reserve() (release func(), err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.alive {
		return nil, fmt.Errorf("%w (%s)", ErrNodeDown, n.name)
	}
	if n.reserved >= n.slots {
		return nil, errNoCapacity
	}
	n.reserved++
	n.metrics.Gauge(serviceName, "render_reserved", telemetry.PeerLabel(n.name)).Set(int64(n.reserved))
	var once sync.Once
	return func() {
		once.Do(func() {
			n.mu.Lock()
			n.reserved--
			n.metrics.Gauge(serviceName, "render_reserved", telemetry.PeerLabel(n.name)).Set(int64(n.reserved))
			n.mu.Unlock()
		})
	}, nil
}

// ApplyLoadOp applies one synthetic scene mutation (an empty-transform
// node under the root — the same minimal op the chaos tests use) to the
// session, charging the modeled middleware cost. The kill fence is
// checked on both sides of the sleep so an op in flight when the node
// dies errors out *without* applying — it applies exactly once, on the
// promoted successor, when the gateway retries.
func (n *Node) ApplyLoadOp(session string, epoch uint64) (version uint64, err error) {
	if err := n.check(session, epoch); err != nil {
		return 0, err
	}
	if n.StorageDegraded() {
		// Already known sick: refuse before burning modeled op time, so
		// the drain's retries land on the successor immediately.
		return 0, fmt.Errorf("%w (%s)", ErrStorageDegraded, n.name)
	}
	sess, ok := n.svc.Session(session)
	if !ok {
		return 0, fmt.Errorf("%w (%s: session %q gone)", ErrStaleEpoch, n.name, session)
	}
	n.clock.Sleep(n.opCost)
	if err := n.check(session, epoch); err != nil {
		return 0, err
	}
	op := &scene.AddNodeOp{Parent: scene.RootID, ID: sess.AllocID(), Name: "load", Transform: mathx.Identity()}
	if err := sess.ApplyUpdate(op, ""); err != nil {
		var fanout *dataservice.FanoutError
		if errors.As(err, &fanout) {
			// Committed here; a subscriber missed it and its follower
			// redials and resumes. Nothing for the op's author to retry.
			return fanout.Version, nil
		}
		if errors.Is(err, dataservice.ErrJournalFault) {
			// First contact with the sick disk: the op reached this
			// node's memory but was never acked, journaled, or fanned
			// out. Latch degraded so the gateway evacuates; the retry
			// commits the op exactly once on the promoted successor,
			// whose replica never saw the phantom.
			n.markStorageDegraded()
			return 0, fmt.Errorf("%w (%s): %w", ErrStorageDegraded, n.name, err)
		}
		return 0, err
	}
	return sess.Version(), nil
}

// RenderFrame serves one frame for the session, charging the modeled
// device render cost. The caller must already hold a render slot from
// reserve. Returns the scene version the frame observed.
func (n *Node) RenderFrame(session string, epoch uint64) (version uint64, err error) {
	if err := n.check(session, epoch); err != nil {
		return 0, err
	}
	sess, ok := n.svc.Session(session)
	if !ok {
		return 0, fmt.Errorf("%w (%s: session %q gone)", ErrStaleEpoch, n.name, session)
	}
	n.clock.Sleep(DefaultRenderCost)
	if err := n.check(session, epoch); err != nil {
		return 0, err
	}
	return sess.Version(), nil
}
