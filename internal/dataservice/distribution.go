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
	"repro/internal/transport"
	"repro/internal/vclock"
	"repro/internal/wsdl"
)

// Distributor manages a session's dataset distribution across render
// services, its workload migration, and — when services fail mid-session
// — the recovery path: failure detection via broken sockets or missed
// load reports, reassignment of orphaned work to survivors, and UDDI
// recruitment of replacements.
type Distributor struct {
	sess *Session

	mu         sync.Mutex
	handles    map[string]RenderHandle
	assignment balance.Assignment
	engine     *balance.MigrationEngine
	lastSeen   map[string]time.Time
	failures   map[string]int
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
		sess:     sess,
		handles:  map[string]RenderHandle{},
		engine:   balance.NewMigrationEngine(th),
		lastSeen: map[string]time.Time{},
		failures: map[string]int{},
	}
}

// clock returns the owning service's time source.
func (d *Distributor) clock() vclock.Clock { return d.sess.svc.cfg.Clock }

// AddService attaches a render service for distribution.
func (d *Distributor) AddService(h RenderHandle) error {
	cap, err := h.Capacity()
	if err != nil {
		return fmt.Errorf("dataservice: capacity interrogation of %s: %w", h.Name(), err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.handles[h.Name()] = h
	d.engine.UpdateCapacity(capacityOf(cap))
	d.lastSeen[h.Name()] = d.clock().Now()
	return nil
}

// RemoveService detaches a render service (its nodes return to the
// unassigned pool on the next Distribute call).
func (d *Distributor) RemoveService(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.handles, name)
	d.engine.Remove(name)
	delete(d.assignment, name)
	delete(d.lastSeen, name)
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
// onto them. Returns balance.ErrInsufficient when the attached services
// cannot hold the dataset — the caller may then Recruit.
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
		d.engine.UpdateCapacity(bc)
		d.mu.Unlock()
	}

	asg, err := balance.DistributeNodes(d.nodeItems(), caps)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.assignment = asg
	d.mu.Unlock()
	return asg, nil
}

// Assignment returns the current assignment (service -> node IDs).
func (d *Distributor) Assignment() balance.Assignment { return d.snapshot().assignment }

// PlanTiles reports the framebuffer-distribution tiling RenderTilesHedged
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

// handleLoadReport feeds the migration engine from a subscriber's load
// report. It is called from the socket serve loop; in-process setups call
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

// ReportLoad records one load report and returns whether the reporting
// service is overloaded (§3.2.7). The report also refreshes the
// service's liveness timestamp for failure detection.
func (d *Distributor) ReportLoad(lr transport.LoadReport) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, attached := d.handles[lr.Name]; attached {
		d.lastSeen[lr.Name] = d.clock().Now()
	}
	return d.engine.ReportLoad(lr.Name, lr.FPS)
}

// PlanMigration proposes node moves per the engine's thresholds, based
// on the current assignment and node costs.
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
	moves := d.engine.PlanMigration(assigned)
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

// LoadSnapshot exposes the migration engine's per-service view, for
// diagnostics and tests.
func (d *Distributor) LoadSnapshot() []balance.ServiceLoad {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.engine.Snapshot()
}

// NeedRecruitment reports whether migration is blocked on fresh capacity.
func (d *Distributor) NeedRecruitment() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.engine.NeedRecruitment()
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
	delete(d.assignment, name)
	delete(d.handles, name)
	d.engine.Remove(name)
	delete(d.lastSeen, name)
	d.failures[name]++
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
	for name := range d.handles {
		if seen, ok := d.lastSeen[name]; ok && now.Sub(seen) > timeout {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// FailedServices lists every service ever marked failed, sorted.
func (d *Distributor) FailedServices() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for n := range d.failures {
		out = append(out, n)
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

// survivorCaps interrogates every attached service and returns capacities
// with Assigned reflecting the live assignment, so reassignment sees true
// spare capacity. Services whose interrogation fails are skipped here;
// the next render round surfaces them as failures.
func (d *Distributor) survivorCaps(costByID map[scene.NodeID]scene.Cost) []balance.ServiceCapacity {
	snap := d.snapshot()
	var caps []balance.ServiceCapacity
	for _, name := range snap.names {
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
// (graceful degradation) rather than stalling the session.
func (d *Distributor) recoverOrphans(ctx context.Context, orphanIDs []scene.NodeID, rep *RecoveryReport) error {
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

	tryPlace := func(overcommit bool) error {
		asg, err := balance.ReassignNodes(orphans, d.survivorCaps(costByID), overcommit)
		if err != nil {
			return err
		}
		d.mergeAssignment(asg)
		rep.Reassigned += len(orphans)
		return nil
	}

	if err := tryPlace(false); err == nil {
		return nil
	}

	d.mu.Lock()
	src, connect, policy := d.recruitSrc, d.recruitConnect, d.recruitPolicy
	d.mu.Unlock()
	if src != nil && connect != nil {
		var newNames []string
		// Recruitment failure is not fatal: overcommit still degrades
		// gracefully below.
		_ = retry.Do(ctx, d.clock(), policy, func() error {
			names, err := d.Recruit(src, connect)
			if err != nil {
				return err
			}
			newNames = append(newNames, names...)
			return nil
		})
		rep.Recruited = append(rep.Recruited, newNames...)
		if err := tryPlace(false); err == nil {
			return nil
		}
	}

	if err := tryPlace(true); err != nil {
		return fmt.Errorf("dataservice: no surviving render services for %d orphaned nodes: %w", len(orphans), err)
	}
	rep.Overcommitted = true
	return nil
}
