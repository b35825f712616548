// The distributed-frame pipeline. Dataset distribution (scene subsets,
// depth-composited), framebuffer distribution (tiles, §3.2.5) and §6's
// Visapult-style slab blending are one act — give each service its share
// under the shared camera, collect, assemble — so they share one entry
// point, Distributor.Render, whose request names the partitioning: a
// partitioner plans the jobs, the one loop runs them (deadlines, hedging,
// forced assembly), the assembler makes the frame.
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
	"repro/internal/mathx"
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

// isDecline reports whether an error is a typed overload refusal.
func isDecline(err error) bool {
	var ov *renderservice.ErrOverloaded
	return errors.As(err, &ov)
}

// Mode is how a distributed frame is shared among the render services.
type Mode int

const (
	// Tiles is framebuffer distribution (§3.2.5): every available service
	// draws a band of the frame, sized to its speed, from its replica, and
	// the bands are painted into place.
	Tiles Mode = iota
	// Subsets is dataset distribution (§3.2.5): every assigned service
	// draws its nodes, shipped as a scene subset, over the whole frame, and
	// the parts are depth-composited.
	Subsets
	// Slabs is volume distribution (§6): every assigned node is a layer of
	// its own, drawn on its service over the whole frame, and the layers are
	// blended back to front by their distance from the camera.
	Slabs
)

// FrameRequest is one distributed frame.
type FrameRequest struct {
	W, H int
	Mode Mode
	// Opacity is every layer's opacity, in (0,1] (1 = opaque slabs); read
	// by Slabs only.
	Opacity float64
	// Timers arm the frame's deadline and hedging; zero waits for every
	// part.
	Timers HedgeConfig
}

// HedgeConfig holds a frame's timers.
type HedgeConfig struct {
	// FrameDeadline is the hard per-frame budget: every job carries it, and
	// at this point the frame assembles from what arrived, missing tiles
	// degraded. Zero sets no deadline.
	FrameDeadline time.Duration
	// HedgeDelay is the soft per-tile deadline: a tile still missing after
	// it is re-issued to the most-spare other peer. Defaults to
	// FrameDeadline/4.
	HedgeDelay time.Duration
}

// FrameReport summarizes one distributed frame.
type FrameReport struct {
	// Parts is the number of planned parts.
	Parts int
	// Hedged counts backup requests issued (soft-deadline misses and
	// immediate re-issues after a failed tile).
	Hedged int
	// HedgeWins counts parts whose first result came from a backup.
	HedgeWins int
	// Declined counts typed refusals.
	Declined int
	// Degraded lists regions force-assembled from the fallback frame.
	Degraded []image.Rectangle
	// Latency is the frame's wall time on the session clock.
	Latency time.Duration
}

// Render runs one distributed frame: check the request, partition a
// snapshot into a plan by its mode, launch every part on its service (one
// job in flight per service; a service's further parts wait their turn),
// collect, and assemble. A request no service would draw — a bad size or a
// slab opacity outside (0,1] — is refused before anything is planned or
// launched, so it costs no service its health.
//
// Every job carries the frame's absolute deadline — now plus
// Timers.FrameDeadline, or none when that is zero — so a service declines
// work it cannot finish in time instead of rendering it late. The timers
// also arm the loop: a tile part still missing after HedgeDelay is
// re-issued to the most-spare alternate not yet tried on it (first result
// wins), and after FrameDeadline the collection is cut short.
//
// A failed part is re-issued, the one failure rule: a tile part at once to
// the next alternate; a subset or slab part whose service failed with
// anything but a typed decline, as parts for just its nodes on the
// services recovery re-placed them on (replace). A declined subset or slab
// fails the frame. Every outcome is recorded in the part's peer record.
//
// The collection ends when every part has a result, when nothing is in
// flight or queued, when the FrameDeadline timer fires, or when ctx is
// done, which fails the frame with ctx's error; the assembler decides what
// a missing part means.
func (d *Distributor) Render(ctx context.Context, req FrameRequest) (*raster.Framebuffer, *FrameReport, error) {
	w, h, timers := req.W, req.H, req.Timers
	if err := (RenderJob{Rect: image.Rect(0, 0, w, h), FullW: w, FullH: h}).Check(); err != nil {
		return nil, nil, err
	}
	if req.Mode == Slabs && !(req.Opacity > 0 && req.Opacity <= 1) {
		return nil, nil, fmt.Errorf("dataservice: slab opacity %v outside (0,1]", req.Opacity)
	}
	if timers.HedgeDelay <= 0 {
		timers.HedgeDelay = timers.FrameDeadline / 4
	}
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
	var p *plan
	var err error
	if req.Mode == Tiles {
		p, err = d.tileParts(snap, w, h)
	} else {
		p, err = d.nodeParts(snap, req)
	}
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

	rep := &FrameReport{Parts: len(p.parts)}
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
			np, err := d.nodeParts(snapshot{handles: live.handles, assignment: placed}, req)
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
	if err := ctx.Err(); err != nil {
		return nil, rep, err
	}
	now := clock.Now()
	d.mu.Lock()
	d.sweep(now)
	d.mu.Unlock()

	compSpan := cfg.Tracer.Child(root.Context(), service, "composite")
	fb, degraded, err := d.assemble(req, p)
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

// nodeParts is the partitioner of the node modes, from the assignment.
// Subsets gives every assigned service one part, its nodes as a scene
// subset (with ancestors retained for world orientation), in service
// order. Slabs gives every assigned node a part of its own on its service,
// in node order, carrying the node's world-space distance from the camera
// for the blend order. Every part is drawn over the whole frame under the
// shared camera.
func (d *Distributor) nodeParts(snap snapshot, req FrameRequest) (*plan, error) {
	if len(snap.assignment) == 0 {
		return nil, fmt.Errorf("dataservice: no distribution planned")
	}
	p := &plan{span: "render-subset"}
	if req.Mode == Slabs {
		p.span = "render-slab"
	}
	for name, ids := range snap.assignment {
		if req.Mode == Subsets {
			p.parts = append(p.parts, part{service: name, nodes: ids})
			continue
		}
		for _, id := range ids {
			p.parts = append(p.parts, part{service: name, nodes: []scene.NodeID{id}})
		}
	}
	sort.Slice(p.parts, func(i, j int) bool {
		if req.Mode == Subsets {
			return p.parts[i].service < p.parts[j].service
		}
		return p.parts[i].nodes[0] < p.parts[j].nodes[0]
	})
	cam := renderservice.CameraFromState(d.sess.Camera())
	job := RenderJob{Camera: cam, Rect: image.Rect(0, 0, req.W, req.H), FullW: req.W, FullH: req.H}
	var err error
	d.sess.Scene(func(sc *scene.Scene) {
		for i := range p.parts {
			pt := &p.parts[i]
			pt.job = job
			if pt.job.Scene, err = sc.ExtractSubset(pt.nodes); err != nil {
				return
			}
			if req.Mode == Subsets {
				continue
			}
			id := pt.nodes[0]
			var world mathx.Mat4
			if world, err = sc.WorldTransform(id); err != nil {
				return
			}
			n := sc.Node(id)
			if n == nil || n.Payload == nil {
				err = fmt.Errorf("dataservice: node %d lost during render", id)
				return
			}
			pt.viewDistance = n.Payload.BoundsLocal().Transform(world).Center().Dist(cam.Eye)
		}
	})
	return p, err
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

// assemble makes a plan's frame by its mode. Tiles: arrived tiles are
// painted into place and a missing one degrades to its region of the last
// good frame of this size, which this frame then becomes. The node modes
// need every part not replaced, taken in plan order: subsets are
// depth-composited, each painted into the frame as it was sent
// (order-independent since payloads are opaque, but for ties, which go to
// the part planned first); slabs are blended back to front by view
// distance at the request's opacity.
func (d *Distributor) assemble(req FrameRequest, p *plan) (*raster.Framebuffer, []image.Rectangle, error) {
	w, h := req.W, req.H
	if req.Mode == Tiles {
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
	var tiles []compositor.Tile
	var layers []compositor.VolumeLayer
	for i := range p.parts {
		switch pt := &p.parts[i]; {
		case pt.replaced:
		case !pt.ok:
			return nil, nil, fmt.Errorf("dataservice: render on %s: %w", pt.service, pt.err)
		case req.Mode == Subsets:
			tiles = append(tiles, pt.tile)
		default:
			fb, err := pt.tile.Dense() // blending reads every pixel of every layer
			if err != nil {
				return nil, nil, err
			}
			layers = append(layers, compositor.VolumeLayer{FB: fb, Opacity: req.Opacity, ViewDistance: pt.viewDistance})
		}
	}
	if req.Mode == Subsets {
		fb, err := compositor.CompositeTiles(w, h, tiles)
		return fb, nil, err
	}
	fb, err := compositor.BlendVolume(w, h, layers)
	return fb, nil, err
}

// RenderDistributed is Render of a Subsets frame without timers.
//
// Deprecated: bench/ only, until the benchmark harness calls Render.
func (d *Distributor) RenderDistributed(w, h int) (*raster.Framebuffer, error) {
	fb, _, err := d.Render(context.TODO(), FrameRequest{W: w, H: h, Mode: Subsets})
	return fb, err
}

// RenderTilesHedged is Render of a Tiles frame under cfg's timers.
//
// Deprecated: bench/ only, until the benchmark harness calls Render.
func (d *Distributor) RenderTilesHedged(ctx context.Context, w, h int, cfg HedgeConfig) (*raster.Framebuffer, *FrameReport, error) {
	return d.Render(ctx, FrameRequest{W: w, H: h, Mode: Tiles, Timers: cfg})
}
