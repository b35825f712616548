package dataservice

import (
	"context"
	"fmt"
	"image"
	"sort"
	"sync"
	"time"

	"repro/internal/balance"
	"repro/internal/raster"
	"repro/internal/retry"
	"repro/internal/scene"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wsdl"
)

// Distributor manages a session's dataset distribution across render
// services, its workload migration, and — when services fail mid-session
// — the recovery path: failure detection via broken sockets or missed
// load reports, reassignment of orphaned work to survivors, and UDDI
// recruitment of replacements. It is the only keeper of a render
// service's health: the frame loop records every part's outcome in the
// service's record (peer, below), and a handle knows nothing of it.
type Distributor struct {
	sess *Session

	mu         sync.Mutex
	peers      map[string]*peer
	assignment balance.Assignment
	th         balance.Thresholds
	// lastFrame is the most recent assembled frame — the degraded-tile
	// fallback when a straggler misses the frame deadline.
	lastFrame *raster.Framebuffer

	recruitSrc     RecruitSource
	recruitConnect Connector
	recruitPolicy  retry.Policy
}

// NewDistributor creates the session's distributor with the given
// migration thresholds.
func (sess *Session) NewDistributor(th balance.Thresholds) *Distributor {
	return &Distributor{
		sess:  sess,
		peers: map[string]*peer{},
		th:    th,
	}
}

// peer is everything the distributor knows of one render service: the
// handle it renders through, when it was last heard from, whether it ever
// failed, what the migration policy reads of it, and its circuit breaker.
// The record outlives the attachment, so Health still reports a failed
// service as Failed.
//
// The breaker: breakerThreshold failures in a row open the peer, and an
// open peer is planned around. Once its cooldown — twice the deadline
// budget of the frame that opened it — is spent, its next part is a single
// half-open probe. Any part that succeeds in time closes the peer.
type peer struct {
	name     string
	handle   RenderHandle // nil once detached
	lastSeen time.Time
	failed   bool
	// load is the capacity as last interrogated, the last reported frame
	// rate and the underload streak; Unavailable is derived from state
	// when loads are listed.
	load balance.ServiceLoad

	state       BreakerState
	failures    int // the current streak
	openedAt    time.Time
	cooldown    time.Duration
	probing     bool // a half-open probe is out
	transitions []BreakerState
	calls       map[*call]bool // parts out on the peer, not yet counted
}

// call is one part out on a peer.
type call struct {
	peer     *peer
	deadline time.Time     // zero: the frame waits for the answer
	budget   time.Duration // the frame's deadline budget
}

// breakerThreshold is the failure streak that opens a peer.
const breakerThreshold = 3

// BreakerState is a peer's circuit-breaker position.
type BreakerState int

// Breaker states: closed (planned, failures counted), open (no work until
// the cooldown is spent), half-open (one probe out decides).
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string { return [...]string{"closed", "open", "half-open"}[s] }

// PeerHealth is a render service's breaker as the frame loop keeps it,
// the frame rate of its last load report, and whether it was ever failed.
type PeerHealth struct {
	State       BreakerState
	Failures    int            // the current streak
	Transitions []BreakerState // every state entered, in order
	FPS         float64
	Failed      bool // FailService named it (latched)
}

// Health reports a render service's breaker: closed with no history for
// a service never attached.
func (d *Distributor) Health(name string) PeerHealth {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.peers[name]
	if p == nil {
		return PeerHealth{}
	}
	return PeerHealth{State: p.state, Failures: p.failures, Transitions: append([]BreakerState(nil), p.transitions...), FPS: p.load.LastFPS, Failed: p.failed}
}

// available reports whether p may be given a part at now: closed, open
// with its cooldown spent (the part is its probe), or half-open with no
// probe out.
func (p *peer) available(now time.Time) bool {
	switch p.state {
	case BreakerOpen:
		return now.Sub(p.openedAt) >= p.cooldown
	case BreakerHalfOpen:
		return !p.probing
	}
	return true
}

// The breaker's moves, each called with d.mu held.

// begin records a part going out to the named service at now. An open
// peer whose cooldown is spent goes half-open, and this part is its probe.
func (d *Distributor) begin(name string, now, deadline time.Time, budget time.Duration) *call {
	p := d.peers[name]
	if p.state != BreakerClosed && p.available(now) {
		if p.state == BreakerOpen {
			d.enter(p, BreakerHalfOpen)
		}
		p.probing = true
	}
	c := &call{peer: p, deadline: deadline, budget: budget}
	if p.calls == nil {
		p.calls = map[*call]bool{}
	}
	p.calls[c] = true
	return c
}

// settle records a part's answer at now, unless the part was already
// counted at its deadline: a success in time closes the peer; an error, a
// typed decline or a late result counts one failure.
func (d *Distributor) settle(c *call, err error, now time.Time) {
	p := c.peer
	if !p.calls[c] {
		return
	}
	delete(p.calls, c)
	if err != nil || !c.deadline.IsZero() && now.After(c.deadline) {
		d.fail(p, now, c.budget)
		return
	}
	p.failures, p.probing = 0, false
	if p.state != BreakerClosed {
		d.enter(p, BreakerClosed)
	}
}

// sweep counts one failure for every part still unanswered at its
// deadline, so a stalled peer's streak builds while it is stalled.
func (d *Distributor) sweep(now time.Time) {
	for _, p := range d.peers {
		for c := range p.calls {
			if !c.deadline.IsZero() && !now.Before(c.deadline) {
				delete(p.calls, c)
				d.fail(p, now, c.budget)
			}
		}
	}
}

// fail counts one failure against p: a half-open peer re-opens, a closed
// one opens at the threshold.
func (d *Distributor) fail(p *peer, now time.Time, budget time.Duration) {
	p.probing = false
	if p.state == BreakerClosed {
		p.failures++
	}
	if p.state == BreakerHalfOpen || p.state == BreakerClosed && p.failures >= breakerThreshold {
		p.openedAt, p.cooldown = now, 2*budget
		d.enter(p, BreakerOpen)
	}
}

// enter moves p to state s: the transition is logged and counted.
func (d *Distributor) enter(p *peer, s BreakerState) {
	p.state = s
	p.transitions = append(p.transitions, s)
	cfg := d.sess.svc.cfg
	switch s {
	case BreakerOpen:
		cfg.Metrics.Counter(cfg.Name, "breaker_open_total", telemetry.PeerLabel(p.name)).Inc()
	case BreakerHalfOpen:
		cfg.Metrics.Counter(cfg.Name, "breaker_half_open_total", telemetry.PeerLabel(p.name)).Inc()
	case BreakerClosed:
		cfg.Metrics.Counter(cfg.Name, "breaker_closed_total", telemetry.PeerLabel(p.name)).Inc()
	}
}

// clock returns the owning service's time source.
func (d *Distributor) clock() vclock.Clock { return d.sess.svc.cfg.Clock }

// AddService attaches a render service for distribution, with a closed
// breaker when it was not attached already.
func (d *Distributor) AddService(h RenderHandle) error {
	cap, err := h.Capacity()
	if err != nil {
		return fmt.Errorf("dataservice: capacity interrogation of %s: %w", h.Name(), err)
	}
	now := d.clock().Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	name := h.Name()
	p := d.peers[name]
	if p == nil || p.handle == nil {
		p = &peer{name: name, failed: p != nil && p.failed}
		d.peers[name] = p
	}
	p.handle, p.lastSeen = h, now
	p.load.Capacity = capacityOf(cap)
	return nil
}

// detach drops a service from planning and placement; its record stays.
func (d *Distributor) detach(name string) {
	if p := d.peers[name]; p != nil {
		p.handle = nil
	}
	delete(d.assignment, name)
}

// ServiceNames lists attached render services, sorted.
func (d *Distributor) ServiceNames() []string { return d.snapshot().names }

// capacityOf converts a wire capacity report to the balancer's view.
func capacityOf(c transport.CapacityReport) balance.ServiceCapacity {
	fps := c.TargetFPS
	if fps <= 0 {
		fps = 10
	}
	return balance.ServiceCapacity{
		Name:         c.Name,
		WorkPerFrame: c.PolysPerSecond / fps,
		TextureBytes: c.TextureMemory,
	}
}

// nodeItems lists the session's distributable payload nodes with costs.
func (d *Distributor) nodeItems() []balance.NodeItem {
	var items []balance.NodeItem
	d.sess.Scene(func(sc *scene.Scene) {
		for _, id := range sc.PayloadIDs() {
			// Only the node's own payload: children are separate items.
			items = append(items, balance.NodeItem{ID: id, Cost: sc.Node(id).Payload.Cost()})
		}
	})
	return items
}

// Distribute (re)plans the dataset distribution: interrogate every
// attached service's current capacity and pack the scene's payload nodes
// onto them. It returns the new assignment as the caller's own copy, or
// balance.ErrInsufficient when the attached services cannot hold the
// dataset — the caller may then Recruit.
func (d *Distributor) Distribute() (balance.Assignment, error) {
	snap := d.snapshot()
	var caps []balance.ServiceCapacity
	for _, name := range snap.names {
		c, err := snap.handles[name].Capacity()
		if err != nil {
			return nil, fmt.Errorf("dataservice: capacity of %s: %w", name, err)
		}
		bc := capacityOf(c)
		caps = append(caps, bc)
		d.mu.Lock()
		if p := d.peers[name]; p.handle != nil {
			p.load.Capacity = bc
		}
		d.mu.Unlock()
	}

	asg, err := balance.DistributeNodes(d.nodeItems(), caps)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.assignment = asg
	d.mu.Unlock()
	return d.Assignment(), nil
}

// Assignment returns the current assignment (service -> node IDs).
func (d *Distributor) Assignment() balance.Assignment { return d.snapshot().assignment }

// PlanTiles reports the framebuffer-distribution tiling a Tiles frame
// would use for a w x h image right now: bands proportional to speed
// across the available services (§3.2.5).
func (d *Distributor) PlanTiles(w, h int) (map[string]image.Rectangle, error) {
	p, err := d.tileParts(d.snapshot(), w, h)
	if err != nil {
		return nil, err
	}
	tiles := make(map[string]image.Rectangle, len(p.parts))
	for _, pt := range p.parts {
		tiles[pt.service] = pt.job.Rect
	}
	return tiles, nil
}

// handleLoadReport feeds the distributor a subscriber's load report. It
// is called from the socket serve loop; in-process setups call
// ReportLoad directly.
func (sess *Session) handleLoadReport(lr transport.LoadReport) {
	sess.mu.Lock()
	d := sess.distributor
	sess.mu.Unlock()
	if d != nil {
		d.ReportLoad(lr)
	}
}

// AttachDistributor makes the distributor receive the session's load
// reports.
func (sess *Session) AttachDistributor(d *Distributor) {
	sess.mu.Lock()
	sess.distributor = d
	sess.mu.Unlock()
}

// ReportLoad records one load report from an attached service for the
// migration policy (§3.2.7), and refreshes the service's liveness
// timestamp for failure detection. A report from a service not attached
// is dropped.
func (d *Distributor) ReportLoad(lr transport.LoadReport) {
	now := d.clock().Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if p := d.peers[lr.Name]; p != nil && p.handle != nil {
		p.lastSeen = now
		d.th.Observe(&p.load, lr.FPS)
	}
}

// loads lists the attached services' loads sorted by name, each marked
// unavailable while its breaker is open. Called with d.mu held.
func (d *Distributor) loads() []balance.ServiceLoad {
	var out []balance.ServiceLoad
	for _, p := range d.peers {
		if p.handle != nil {
			sl := p.load
			sl.Unavailable = p.state == BreakerOpen
			out = append(out, sl)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Capacity.Name < out[j].Capacity.Name })
	return out
}

// PlanMigration proposes node moves per the distributor's thresholds,
// based on the current assignment and node costs.
func (d *Distributor) PlanMigration() []balance.Move {
	items := map[scene.NodeID]balance.NodeItem{}
	for _, it := range d.nodeItems() {
		items[it.ID] = it
	}
	d.mu.Lock()
	assigned := map[string][]balance.NodeItem{}
	for name, ids := range d.assignment {
		for _, id := range ids {
			if it, ok := items[id]; ok {
				assigned[name] = append(assigned[name], it)
			}
		}
	}
	moves := d.th.PlanMigration(d.loads(), assigned)
	// Apply the moves to the assignment.
	for _, mv := range moves {
		src := d.assignment[mv.From]
		for i, id := range src {
			if id == mv.NodeID {
				d.assignment[mv.From] = append(src[:i], src[i+1:]...)
				break
			}
		}
		d.assignment[mv.To] = append(d.assignment[mv.To], mv.NodeID)
	}
	d.mu.Unlock()
	return moves
}

// NeedRecruitment reports whether migration is blocked on fresh capacity.
func (d *Distributor) NeedRecruitment() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.th.NeedRecruitment(d.loads())
}

// Connector dials a render service discovered at a UDDI access point and
// returns a handle on it.
type Connector func(accessPoint string) (RenderHandle, error)

// RecruitSource is the discovery surface recruitment needs; *uddi.Proxy
// satisfies it, and the chaos suite substitutes fault-injecting sources.
type RecruitSource interface {
	// ScanAccessPoints lists access points advertising a tModel.
	ScanAccessPoints(tmodelName string) ([]string, error)
}

// Recruit discovers render services through UDDI that are not yet
// attached to this session and connects them — "the data server uses
// UDDI to discover additional render services that are not connected to
// the data service. These underutilised services can then be recruited"
// (§3.2.7). Returns the names of newly attached services.
func (d *Distributor) Recruit(proxy RecruitSource, connect Connector) ([]string, error) {
	points, err := proxy.ScanAccessPoints(wsdl.RenderServicePortType)
	if err != nil {
		return nil, fmt.Errorf("dataservice: recruitment scan: %w", err)
	}
	attached := d.snapshot().handles

	var recruited []string
	for _, ap := range points {
		h, err := connect(ap)
		if err != nil {
			continue // unreachable services are skipped, not fatal
		}
		if attached[h.Name()] != nil {
			continue
		}
		if err := d.AddService(h); err != nil {
			continue
		}
		attached[h.Name()] = h
		recruited = append(recruited, h.Name())
	}
	if len(recruited) == 0 {
		return nil, fmt.Errorf("dataservice: recruitment found no new render services")
	}
	return recruited, nil
}

// SetRecruiter arms automatic recruitment during failure recovery: when
// reassignment of orphaned work to survivors fails for lack of capacity,
// the distributor scans src for fresh render services under the retry
// policy before degrading to overcommitted placement.
func (d *Distributor) SetRecruiter(src RecruitSource, connect Connector, policy retry.Policy) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.recruitSrc = src
	d.recruitConnect = connect
	d.recruitPolicy = policy
}

// FailService marks an attached render service as failed — detected via
// a broken socket, a render error, or missed load reports — detaching it
// and returning the node IDs it was rendering (now orphaned work to
// reassign).
func (d *Distributor) FailService(name string) []scene.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	orphans := append([]scene.NodeID(nil), d.assignment[name]...)
	d.detach(name)
	if p := d.peers[name]; p != nil {
		p.failed = true
	}
	return orphans
}

// DeadServices lists attached services whose last liveness signal (load
// report or attachment) is older than timeout — the paper's missed-
// load-report failure signal. The caller typically feeds each name to
// FailService and recovers the orphans.
func (d *Distributor) DeadServices(timeout time.Duration) []string {
	now := d.clock().Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for name, p := range d.peers {
		if p.handle != nil && now.Sub(p.lastSeen) > timeout {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// mergeAssignment folds reassigned orphans into the live assignment.
func (d *Distributor) mergeAssignment(asg balance.Assignment) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.assignment == nil {
		d.assignment = balance.Assignment{}
	}
	for name, ids := range asg {
		d.assignment[name] = append(d.assignment[name], ids...)
	}
}

// survivorCaps interrogates every attached service whose breaker is not
// open (a stalled peer would block recovery) and returns capacities with
// Assigned reflecting the live assignment, so reassignment sees true spare
// capacity. Services whose interrogation fails are skipped here.
func (d *Distributor) survivorCaps(costByID map[scene.NodeID]scene.Cost) []balance.ServiceCapacity {
	snap := d.snapshot()
	var caps []balance.ServiceCapacity
	for _, name := range snap.names {
		if d.Health(name).State == BreakerOpen {
			continue
		}
		c, err := snap.handles[name].Capacity()
		if err != nil {
			continue
		}
		bc := capacityOf(c)
		for _, id := range snap.assignment[name] {
			cost := costByID[id]
			bc.Assigned += cost.Work()
			bc.AssignedBytes += cost.Bytes
		}
		caps = append(caps, bc)
	}
	return caps
}

// recoverOrphans places orphaned nodes back onto the session: first onto
// survivors' spare capacity, then — if that is insufficient and a
// recruiter is armed — after recruiting replacements through UDDI with
// retry, and finally by overcommitting survivors so frames keep flowing
// (graceful degradation) rather than stalling the session. The recovery_*
// series count what it did.
func (d *Distributor) recoverOrphans(ctx context.Context, orphanIDs []scene.NodeID) error {
	if len(orphanIDs) == 0 {
		return nil
	}
	costByID := map[scene.NodeID]scene.Cost{}
	for _, it := range d.nodeItems() {
		costByID[it.ID] = it.Cost
	}
	seen := map[scene.NodeID]bool{}
	var orphans []balance.NodeItem
	for _, id := range orphanIDs {
		if seen[id] {
			continue
		}
		seen[id] = true
		orphans = append(orphans, balance.NodeItem{ID: id, Cost: costByID[id]})
	}
	cfg := d.sess.svc.cfg

	tryPlace := func(overcommit bool) error {
		asg, err := balance.ReassignNodes(orphans, d.survivorCaps(costByID), overcommit)
		if err != nil {
			return err
		}
		d.mergeAssignment(asg)
		cfg.Metrics.Counter(cfg.Name, "recovery_reassigned_nodes_total", "").Add(int64(len(orphans)))
		return nil
	}

	if err := tryPlace(false); err == nil {
		return nil
	}

	d.mu.Lock()
	src, connect, policy := d.recruitSrc, d.recruitConnect, d.recruitPolicy
	d.mu.Unlock()
	if src != nil && connect != nil {
		// Recruitment failure is not fatal: overcommit still degrades
		// gracefully below.
		_ = retry.Do(ctx, d.clock(), policy, func() error {
			names, err := d.Recruit(src, connect)
			for _, name := range names {
				cfg.Metrics.Counter(cfg.Name, "recovery_recruited_total", telemetry.PeerLabel(name)).Inc()
			}
			return err
		})
		if err := tryPlace(false); err == nil {
			return nil
		}
	}

	if err := tryPlace(true); err != nil {
		return fmt.Errorf("dataservice: no surviving render services for %d orphaned nodes: %w", len(orphans), err)
	}
	cfg.Metrics.Counter(cfg.Name, "recovery_overcommits_total", "").Inc()
	return nil
}
