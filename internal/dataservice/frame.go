// The distributed-frame pipeline. Dataset distribution (scene subsets,
// depth-composited), framebuffer distribution (tiles, §3.2.5) and §6's
// Visapult-style slab blending are one act — give each service its share
// under the shared camera, collect, assemble — so they share one
// implementation: a partitioner plans the jobs, renderFrame runs them
// (deadlines, hedging, forced assembly), an assembler makes the frame.
package dataservice

import (
	"context"
	"errors"
	"fmt"
	"image"
	"slices"
	"sort"
	"time"

	"repro/internal/balance"
	"repro/internal/compositor"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// RenderHandle is the data service's view of a connected render service:
// enough to interrogate capacity and hand it its share of a frame.
// In-process adapters and socket adapters both satisfy it.
type RenderHandle interface {
	// Name identifies the render service.
	Name() string
	// Capacity interrogates the service (§3.2.5).
	Capacity() (transport.CapacityReport, error)
	// Render performs one job and returns the rendered region with its
	// depth buffer. Work the service refuses rather than render late is
	// reported as a typed *renderservice.ErrOverloaded.
	Render(job RenderJob) (compositor.Tile, error)
}

// RenderJob is one service's share of a distributed frame, in the render
// service's own terms, so a job travels from the partitioner to the
// rasterizer unchanged. A job with a Scene ships the service its part of
// the data; one without is drawn from the service's replica of the
// session, which the handle supplies.
type RenderJob = renderservice.Job

// snapshot is a private copy of the distributor's handles and node
// assignment: what planning and rendering read while migration, failure
// handling and recruitment go on changing the live maps.
type snapshot struct {
	names      []string // attached services, sorted
	handles    map[string]RenderHandle
	assignment balance.Assignment
}

func (d *Distributor) snapshot() snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := snapshot{
		handles:    make(map[string]RenderHandle, len(d.peers)),
		assignment: make(balance.Assignment, len(d.assignment)),
	}
	for name, p := range d.peers {
		if p.handle != nil {
			s.handles[name] = p.handle
			s.names = append(s.names, name)
		}
	}
	sort.Strings(s.names)
	for name, ids := range d.assignment {
		s.assignment[name] = append([]scene.NodeID(nil), ids...)
	}
	return s
}

// part is one unit of a plan: a job (its deadline and trace are stamped
// at launch) and the service it is planned on.
type part struct {
	service string
	job     RenderJob
	// nodes are the scene nodes a subset or slab part draws; a tile part
	// draws from the replica and holds none.
	nodes []scene.NodeID
	// viewDistance places a volume slab in the blend order.
	viewDistance float64

	// Filled in by the loop: the first successful result (until ok, the
	// last attempt's error), attempts out, the next alternate to try, and
	// whether parts launched on other services took over its nodes.
	tile              compositor.Tile
	ok, replaced      bool
	err               error
	inflight, nextAlt int
}

// plan is a frame partitioned into parts, in the order the assembler
// wants them.
type plan struct {
	// span names a part's launch span ("-hedge" appended for a re-issue).
	span  string
	parts []part
	// alternates lists, most spare capacity first, the closed-breaker
	// services a tile part may be re-issued to. Subset and slab plans
	// have none: their parts live where the assignment put them.
	alternates []balance.ServiceCapacity
}

// complete returns the parts of a plan that needs every one — those not
// replaced, in plan order — or the first failure.
func (p *plan) complete() ([]*part, error) {
	out := make([]*part, 0, len(p.parts))
	for i := range p.parts {
		pt := &p.parts[i]
		switch {
		case pt.replaced:
		case !pt.ok:
			return nil, fmt.Errorf("dataservice: render on %s: %w", pt.service, pt.err)
		default:
			out = append(out, pt)
		}
	}
	return out, nil
}

// isDecline reports whether an error is a typed overload refusal.
func isDecline(err error) bool {
	var ov *renderservice.ErrOverloaded
	return errors.As(err, &ov)
}

// renderFrame runs one distributed frame: partition a snapshot into a
// plan, launch every part on its service (one job in flight per service;
// a service's further parts wait their turn), collect, and assemble.
//
// Every job carries the frame's absolute deadline — now plus
// timers.FrameDeadline, or none when that is zero — so a service declines
// work it cannot finish in time instead of rendering it late. The timers
// also arm the loop: a tile part still missing after HedgeDelay is
// re-issued to the most-spare alternate not yet tried on it (first result
// wins), and after FrameDeadline the collection is cut short.
//
// A failed part is re-issued, the one failure rule: a tile part at once to
// the next alternate; a subset or slab part whose service failed with
// anything but a typed decline, as parts for just its nodes on the
// services recovery re-placed them on (replace). Every outcome is recorded
// in the part's peer record.
//
// The collection ends when every part has a result, when nothing is in
// flight or queued, when the FrameDeadline timer fires, or when ctx is
// done; the assembler decides what a missing part means.
func (d *Distributor) renderFrame(ctx context.Context, w, h int, timers HedgeConfig,
	partition func(snap snapshot, w, h int) (*plan, error),
	assemble func(w, h int, p *plan) (*raster.Framebuffer, []image.Rectangle, error),
) (*raster.Framebuffer, *HedgeReport, error) {
	clock := d.clock()
	cfg := d.sess.svc.cfg
	metrics, service := cfg.Metrics, cfg.Name
	start := clock.Now()
	var deadline time.Time
	if timers.FrameDeadline > 0 {
		deadline = start.Add(timers.FrameDeadline)
	}
	// Root span: one per frame, covering planning, fan-out, hedging and
	// compositing. The deferred error end is a backstop — EndStatus is
	// first-wins, so the success paths override it.
	root := cfg.Tracer.Root(service, "frame")
	root.SetAttr(fmt.Sprintf("%dx%d", w, h))
	defer root.EndStatus(telemetry.StatusError)

	planSpan := cfg.Tracer.Child(root.Context(), service, "plan")
	snap := d.snapshot()
	p, err := partition(snap, w, h)
	if err != nil {
		planSpan.EndStatus(telemetry.StatusError)
		return nil, nil, err
	}
	planSpan.End()

	type attempt struct {
		part  int
		name  string
		hedge bool
		tile  compositor.Tile
		err   error
	}
	// Sized for every launch the frame may make — each part once on its
	// own service and once on each alternate, plus one replacement per
	// node — so result sends cannot block; the done guard additionally
	// unblocks stragglers replying after the frame returned.
	spare := 0
	for _, pt := range p.parts {
		spare += len(pt.nodes)
	}
	results := make(chan attempt, len(p.parts)*(1+len(p.alternates))+spare)
	done := make(chan struct{})
	defer close(done)
	launch := func(i int, name string, hedge bool) {
		job := p.parts[i].job
		job.Deadline = deadline
		// The span is created here, not in the goroutine: launches are
		// decided sequentially in the select loop, so span IDs allocate
		// in a deterministic order even though renders run in parallel.
		spanName := p.span
		if hedge {
			spanName += "-hedge"
		}
		span := cfg.Tracer.Child(root.Context(), service, spanName)
		span.SetPeer(name)
		span.SetAttr(job.Rect.String())
		job.Trace = span.Context()
		p.parts[i].inflight++
		handle := snap.handles[name]
		d.mu.Lock()
		c := d.begin(name, clock.Now(), deadline, timers.FrameDeadline)
		d.mu.Unlock()
		go func() {
			tile, err := handle.Render(job)
			now := clock.Now()
			d.mu.Lock()
			d.settle(c, err, now)
			d.mu.Unlock()
			switch {
			case err == nil:
				span.End()
			case isDecline(err):
				span.EndStatus(telemetry.StatusDeclined)
			default:
				span.EndStatus(telemetry.StatusError)
			}
			select {
			case results <- attempt{i, name, hedge, tile, err}:
			case <-done:
			}
		}()
	}

	rep := &HedgeReport{Tiles: len(p.parts)}
	pending := 0                 // parts queued or in flight, plus re-issues in flight
	queued := map[string][]int{} // per busy service, the parts waiting their turn
	dispatch := func(i int) {
		pt := &p.parts[i]
		if snap.handles[pt.service] == nil {
			pt.err = fmt.Errorf("dataservice: assigned service %s not attached", pt.service)
			return
		}
		pending++
		if q, busy := queued[pt.service]; busy {
			queued[pt.service] = append(q, i)
		} else {
			queued[pt.service] = nil
			launch(i, pt.service, false)
		}
	}
	for i := range p.parts {
		dispatch(i)
	}
	reissue := func(i int) { // no-op once every alternate has been tried
		pt := &p.parts[i]
		for pt.nextAlt < len(p.alternates) {
			name := p.alternates[pt.nextAlt].Name
			pt.nextAlt++
			if name != pt.service {
				pending++
				rep.Hedged++
				metrics.Counter(service, "hedge_reissues_total", "").Inc()
				launch(i, name, true)
				return
			}
		}
	}
	filled := 0 // parts with a result, or replaced
	// replace detaches a service whose subset or slab part failed,
	// re-places its nodes, and launches parts for just the nodes its
	// unfinished parts held where they now live: survivors never redraw
	// their own shares. A replacement carries at least one node, so the
	// plan's node count bounds them; a typed decline never gets here.
	replace := func(name string, cause error) error {
		var missing []scene.NodeID
		var gone []int
		for i := range p.parts {
			if pt := &p.parts[i]; pt.service == name && !pt.ok && !pt.replaced {
				pt.err = cause
				missing = append(missing, pt.nodes...)
				gone = append(gone, i)
			}
		}
		pending -= len(queued[name])
		delete(queued, name)
		if err := d.recoverOrphans(ctx, d.FailService(name)); err != nil {
			return err
		}
		live := d.snapshot()
		owner := map[scene.NodeID]string{}
		for svc, ids := range live.assignment {
			for _, id := range ids {
				owner[id] = svc
			}
		}
		placed := balance.Assignment{}
		for _, id := range missing {
			if svc, ok := owner[id]; ok { // else the node left the scene
				placed[svc] = append(placed[svc], id)
			}
		}
		var more []part
		if len(placed) > 0 {
			np, err := partition(snapshot{handles: live.handles, assignment: placed}, w, h)
			if err != nil {
				return err
			}
			more = np.parts
		}
		if len(more) > spare {
			return fmt.Errorf("dataservice: %s failed with no replacement left in this frame", name)
		}
		spare -= len(more)
		for _, i := range gone {
			p.parts[i].replaced = true
			filled++
		}
		for _, pt := range more {
			snap.handles[pt.service] = live.handles[pt.service]
			p.parts = append(p.parts, pt)
			dispatch(len(p.parts) - 1)
		}
		return nil
	}

	var hedgeCh, forceCh <-chan time.Time // a nil channel never fires
	if timers.HedgeDelay > 0 {
		hedgeCh = clock.After(timers.HedgeDelay)
	}
	if timers.FrameDeadline > 0 {
		forceCh = clock.After(timers.FrameDeadline)
	}
collect:
	for filled < len(p.parts) && pending > 0 {
		select {
		case <-ctx.Done():
			return nil, rep, ctx.Err()
		case r := <-results:
			pending--
			pt := &p.parts[r.part]
			pt.inflight--
			if r.err != nil && !isDecline(r.err) && len(pt.nodes) > 0 {
				metrics.Counter(service, "tile_errors_total", telemetry.PeerLabel(r.name)).Inc()
				if err := replace(r.name, r.err); err != nil {
					p.parts[r.part].err = err
				}
				continue
			}
			if q := queued[r.name]; !r.hedge && len(q) > 0 {
				queued[r.name] = q[1:]
				launch(q[0], r.name, false)
			} else if !r.hedge {
				delete(queued, r.name) // idle: a replacement part launches at once
			}
			switch {
			case r.err != nil:
				if isDecline(r.err) {
					rep.Declined++
					metrics.Counter(service, "hedge_declines_total", telemetry.PeerLabel(r.name)).Inc()
				} else {
					metrics.Counter(service, "tile_errors_total", telemetry.PeerLabel(r.name)).Inc()
				}
				if !pt.ok {
					pt.err = r.err
					if pt.inflight == 0 {
						reissue(r.part)
					}
				}
			case !pt.ok: // else the loser: a result already won this part
				pt.tile, pt.ok = r.tile, true
				filled++
				if r.hedge {
					rep.HedgeWins++
					metrics.Counter(service, "hedge_wins_total", "").Inc()
				}
			}
		case <-hedgeCh:
			for i := range p.parts {
				if !p.parts[i].ok {
					reissue(i)
				}
			}
		case <-forceCh:
			break collect
		}
	}
	now := clock.Now()
	d.mu.Lock()
	d.sweep(now)
	d.mu.Unlock()

	compSpan := cfg.Tracer.Child(root.Context(), service, "composite")
	fb, degraded, err := assemble(w, h, p)
	if err != nil {
		compSpan.EndStatus(telemetry.StatusError)
		return nil, rep, err
	}
	rep.Degraded = degraded
	rep.Latency = clock.Now().Sub(start)
	metrics.Counter(service, "hedge_frames_total", "").Inc()
	metrics.Counter(service, "hedge_degraded_tiles_total", "").Add(int64(len(degraded)))
	metrics.Histogram(service, "frame_latency_ns", "").Observe(rep.Latency)
	status := telemetry.StatusOK
	if len(degraded) > 0 {
		metrics.Counter(service, "hedge_degraded_frames_total", "").Inc()
		status = telemetry.StatusDegraded
	}
	compSpan.EndStatus(status)
	root.EndStatus(status)
	return fb, rep, nil
}

// subsetParts is the dataset-distribution partitioner (§3.2.5): every
// assigned service gets its nodes as a scene subset (with ancestors
// retained for world orientation) to render over the whole frame under
// the shared camera.
func (d *Distributor) subsetParts(snap snapshot, w, h int) (*plan, error) {
	if len(snap.assignment) == 0 {
		return nil, fmt.Errorf("dataservice: no distribution planned")
	}
	names := make([]string, 0, len(snap.assignment))
	for name := range snap.assignment {
		names = append(names, name)
	}
	sort.Strings(names)
	cam := renderservice.CameraFromState(d.sess.Camera())
	job := RenderJob{Camera: cam, Rect: image.Rect(0, 0, w, h), FullW: w, FullH: h}
	p := &plan{span: "render-subset"}
	var err error
	d.sess.Scene(func(sc *scene.Scene) {
		for _, name := range names {
			if job.Scene, err = sc.ExtractSubset(snap.assignment[name]); err != nil {
				return
			}
			p.parts = append(p.parts, part{service: name, job: job, nodes: snap.assignment[name]})
		}
	})
	return p, err
}

// compositeSubsets is the dataset-distribution assembler: the parts'
// frame+depth buffers are depth-composited, each painted into the frame
// as it was sent. The composition is order-independent since payloads
// are opaque, but for ties, which go to the part planned first.
func compositeSubsets(w, h int, p *plan) (*raster.Framebuffer, []image.Rectangle, error) {
	parts, err := p.complete()
	if err != nil {
		return nil, nil, err
	}
	tiles := make([]compositor.Tile, len(parts))
	for i, pt := range parts {
		tiles[i] = pt.tile
	}
	fb, err := compositor.CompositeTiles(w, h, tiles)
	return fb, nil, err
}

// RenderDistributed performs one distributed frame by dataset
// distribution: every assigned service renders its scene subset and the
// results are depth-composited (§3.2.5). A service that fails mid-frame
// is detached and what it had not drawn is re-placed and drawn elsewhere
// within the frame, so thin clients keep receiving frames while the
// fabric degrades and heals (§3.2.7); a typed decline fails the frame.
func (d *Distributor) RenderDistributed(w, h int) (*raster.Framebuffer, error) {
	fb, _, err := d.renderFrame(context.TODO(), w, h, HedgeConfig{}, d.subsetParts, compositeSubsets)
	return fb, err
}

// HedgeConfig tunes the hedged tile path.
type HedgeConfig struct {
	// FrameDeadline is the hard per-frame budget: at this point the
	// frame force-assembles with missing tiles degraded. Defaults to
	// 250ms.
	FrameDeadline time.Duration
	// HedgeDelay is the soft per-tile deadline: a tile still missing
	// after it is re-issued to the most-spare other peer. Defaults to
	// FrameDeadline/4 (and is clamped below FrameDeadline).
	HedgeDelay time.Duration
}

// HedgeReport summarizes one hedged frame.
type HedgeReport struct {
	// Tiles is the number of planned tile regions.
	Tiles int
	// Hedged counts backup requests issued (soft-deadline misses and
	// immediate re-issues after a decline).
	Hedged int
	// HedgeWins counts regions whose first result came from a backup.
	HedgeWins int
	// Declined counts typed refusals.
	Declined int
	// Degraded lists regions force-assembled from the fallback frame.
	Degraded []image.Rectangle
	// Latency is the frame's wall time on the session clock.
	Latency time.Duration
}

// tileParts is the framebuffer-distribution partitioner (§3.2.5): the
// frame is cut into bands proportional to speed across the attached
// services whose breakers are not open (a half-open one gets its probe).
// It plans from *cached* capacities — interrogating a stalled peer would
// block planning — and ranks the closed peers by spare capacity as
// re-issue alternates: a probe is never hedged onto.
func (d *Distributor) tileParts(snap snapshot, w, h int) (*plan, error) {
	now := d.clock().Now()
	var caps []balance.ServiceCapacity
	var probes []string
	d.mu.Lock()
	for _, name := range snap.names {
		if pr := d.peers[name]; pr.handle != nil && pr.available(now) {
			caps = append(caps, pr.load.Capacity)
			if pr.state != BreakerClosed {
				probes = append(probes, name)
			}
		}
	}
	d.mu.Unlock()
	cfg := d.sess.svc.cfg
	cfg.Metrics.Gauge(cfg.Name, "hedge_available_peers", "").Set(int64(len(caps)))
	tiles := balance.DistributeTiles(w, h, caps)
	if len(tiles) == 0 {
		return nil, fmt.Errorf("dataservice: empty tile plan for %dx%d across %d available services", w, h, len(caps))
	}
	p := &plan{span: "render-tile"}
	for _, c := range caps { // sorted by name
		if rect, ok := tiles[c.Name]; ok {
			p.parts = append(p.parts, part{service: c.Name, job: RenderJob{Rect: rect, FullW: w, FullH: h}})
		}
	}
	alternates := caps[:0]
	for _, c := range caps {
		if !slices.Contains(probes, c.Name) {
			alternates = append(alternates, c)
		}
	}
	sort.SliceStable(alternates, func(i, j int) bool { return alternates[i].Spare() > alternates[j].Spare() })
	p.alternates = alternates
	return p, nil
}

// assembleTiles is the framebuffer-distribution assembler: arrived
// tiles are painted into place and a missing one degrades to its region
// of the last good frame of this size, which this frame then becomes.
func (d *Distributor) assembleTiles(w, h int, p *plan) (*raster.Framebuffer, []image.Rectangle, error) {
	rects := make([]image.Rectangle, len(p.parts))
	for i, pt := range p.parts {
		rects[i] = pt.job.Rect
	}
	sync, err := compositor.NewSynchronizer(w, h, rects)
	if err != nil {
		return nil, nil, err
	}
	for _, pt := range p.parts {
		if pt.ok {
			if err := sync.Submit(pt.tile); err != nil {
				return nil, nil, err
			}
		}
	}
	d.mu.Lock()
	fallback := d.lastFrame
	d.mu.Unlock()
	if fallback != nil && (fallback.W != w || fallback.H != h) {
		fallback = nil
	}
	fb, _, degraded, err := sync.AssembleDegraded(fallback)
	if err != nil {
		return nil, nil, err
	}
	d.mu.Lock()
	d.lastFrame = fb
	d.mu.Unlock()
	return fb, degraded, nil
}

// RenderTilesHedged renders one frame by framebuffer distribution with
// overload protection end to end: tileParts plans around open peers,
// renderFrame hedges stragglers and cuts the collection at the hard
// deadline, assembleTiles degrades what is still missing. The frame is
// therefore never lost and never later than the deadline plus one
// scheduling quantum.
func (d *Distributor) RenderTilesHedged(ctx context.Context, w, h int, cfg HedgeConfig) (*raster.Framebuffer, *HedgeReport, error) {
	if cfg.FrameDeadline <= 0 {
		cfg.FrameDeadline = 250 * time.Millisecond
	}
	if cfg.HedgeDelay <= 0 || cfg.HedgeDelay >= cfg.FrameDeadline {
		cfg.HedgeDelay = cfg.FrameDeadline / 4
	}
	return d.renderFrame(ctx, w, h, cfg, d.tileParts, d.assembleTiles)
}
