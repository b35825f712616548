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

// AvailabilityReporter is the optional RenderHandle extension a
// circuit-breaker wrapper implements; the distributor folds the
// verdicts into its migration engine so breaker-open peers are planned
// around and NeedRecruitment fires when capacity is truly gone.
type AvailabilityReporter interface {
	// Available reports whether the peer should receive work right now
	// (false while its breaker is open).
	Available() bool
}

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
		handles:    make(map[string]RenderHandle, len(d.handles)),
		assignment: make(balance.Assignment, len(d.assignment)),
	}
	for name, h := range d.handles {
		s.handles[name] = h
		s.names = append(s.names, name)
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
	// viewDistance places a volume slab in the blend order.
	viewDistance float64

	// Filled in by the loop: the first successful result (until ok, the
	// last attempt's error), attempts out, the next alternate to try.
	tile              compositor.Tile
	ok                bool
	err               error
	inflight, nextAlt int
}

// plan is a frame partitioned into parts, in the order the assembler
// wants them.
type plan struct {
	// span names a part's launch span ("-hedge" appended for a re-issue).
	span  string
	parts []part
	// alternates lists, most spare capacity first, the services a part
	// may be re-issued to. Only tile plans have any: every peer holds the
	// replica, whereas a subset or slab lives where the assignment put it.
	alternates []balance.ServiceCapacity
}

// partsError reports the services whose parts of a frame could not be
// rendered, in plan order.
type partsError struct {
	services []string
	first    error
}

func (e *partsError) Error() string {
	return fmt.Sprintf("dataservice: render on %s: %v", e.services[0], e.first)
}

func (e *partsError) Unwrap() error { return e.first }

// complete returns the results of a plan that needs every part, in plan
// order, or a *partsError naming the services that failed.
func (p *plan) complete() ([]compositor.Tile, error) {
	tiles := make([]compositor.Tile, len(p.parts))
	var failed *partsError
	for i, pt := range p.parts {
		tiles[i] = pt.tile
		if !pt.ok {
			if failed == nil {
				failed = &partsError{first: pt.err}
			}
			failed.services = append(failed.services, pt.service)
		}
	}
	if failed != nil {
		return nil, failed
	}
	return tiles, nil
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
// timers.FrameDeadline, else plus the service's configured per-frame
// budget, else none — so a service declines work it cannot finish in
// time instead of rendering it late. The two fields of timers also arm
// the loop: a part still missing after HedgeDelay is re-issued to the
// most-spare alternate not yet tried on it (first result wins), and
// after FrameDeadline the collection is cut short. A part that fails is
// re-issued at once. The zero HedgeConfig arms neither timer.
//
// The collection ends when every part has a result, when nothing is in
// flight or queued (each missing part has failed wherever it may
// render), when the FrameDeadline timer fires, or when ctx is done. The
// assembler decides what a missing part means: an error or a degraded
// region.
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
	// Sized for every possible launch (each part once on its own service
	// and once on each alternate), so result sends cannot block; the done
	// guard additionally unblocks stragglers replying after the frame
	// returned.
	results := make(chan attempt, len(p.parts)*(1+len(p.alternates)))
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
		go func() {
			tile, err := snap.handles[name].Render(job)
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
	for i := range p.parts {
		pt := &p.parts[i]
		if snap.handles[pt.service] == nil {
			pt.err = fmt.Errorf("dataservice: assigned service %s not attached", pt.service)
			continue
		}
		pending++
		if q, busy := queued[pt.service]; busy {
			queued[pt.service] = append(q, i)
		} else {
			queued[pt.service] = nil
			launch(i, pt.service, false)
		}
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

	var hedgeCh, forceCh <-chan time.Time // a nil channel never fires
	if timers.HedgeDelay > 0 {
		hedgeCh = clock.After(timers.HedgeDelay)
	}
	if timers.FrameDeadline > 0 {
		forceCh = clock.After(timers.FrameDeadline)
	}
	filled := 0
collect:
	for filled < len(p.parts) && pending > 0 {
		select {
		case <-ctx.Done():
			return nil, rep, ctx.Err()
		case r := <-results:
			pending--
			pt := &p.parts[r.part]
			pt.inflight--
			if q := queued[r.name]; !r.hedge && len(q) > 0 {
				queued[r.name] = q[1:]
				launch(q[0], r.name, false)
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
			p.parts = append(p.parts, part{service: name, job: job})
		}
	})
	return p, err
}

// compositeSubsets is the dataset-distribution assembler: the parts'
// frame+depth buffers are depth-composited, each painted into the frame
// as it was sent. The composition is order-independent since payloads
// are opaque, but for ties, which go to the part planned first.
func compositeSubsets(w, h int, p *plan) (*raster.Framebuffer, []image.Rectangle, error) {
	tiles, err := p.complete()
	if err != nil {
		return nil, nil, err
	}
	fb, err := compositor.CompositeTiles(w, h, tiles)
	return fb, nil, err
}

// RenderDistributed performs one distributed frame by dataset
// distribution: every assigned service renders its scene subset and the
// results are depth-composited (§3.2.5). Any part failing fails the
// frame.
func (d *Distributor) RenderDistributed(w, h int) (*raster.Framebuffer, error) {
	fb, _, err := d.renderFrame(context.TODO(), w, h, HedgeConfig{}, d.subsetParts, compositeSubsets)
	return fb, err
}

// maxRecoveryRounds bounds how many failure-recovery cycles one frame
// may trigger before the session gives up.
const maxRecoveryRounds = 4

// RecoveryReport summarizes what failure recovery did for one frame.
type RecoveryReport struct {
	// Failed lists services detected failed this frame (detection order).
	Failed []string
	// Reassigned counts orphaned nodes placed onto other services.
	Reassigned int
	// Recruited lists services newly attached via UDDI during recovery.
	Recruited []string
	// Overcommitted is set when survivors were loaded past capacity to
	// keep frames flowing.
	Overcommitted bool
	// Rounds is the number of render attempts (1 = no failures).
	Rounds int
}

// RenderDistributedResilient renders one distributed frame like
// RenderDistributed, but survives render-service failures mid-frame: a
// failed service is detached, its orphaned nodes are reassigned to
// survivors (recruiting replacements through UDDI when capacity runs
// short), and the frame is re-rendered — so thin clients keep receiving
// frames while the fabric degrades and heals (§3.2.7).
func (d *Distributor) RenderDistributedResilient(ctx context.Context, w, h int) (*raster.Framebuffer, *RecoveryReport, error) {
	rep := &RecoveryReport{}
	for rep.Rounds = 1; ; rep.Rounds++ {
		if err := ctx.Err(); err != nil {
			return nil, rep, err
		}
		fb, _, err := d.renderFrame(ctx, w, h, HedgeConfig{}, d.subsetParts, compositeSubsets)
		var failed *partsError
		if !errors.As(err, &failed) {
			return fb, rep, err
		}
		if rep.Rounds > maxRecoveryRounds {
			return nil, rep, fmt.Errorf("dataservice: recovery exhausted after %d rounds (%d services still failing)",
				rep.Rounds, len(failed.services))
		}
		var orphans []scene.NodeID
		for _, n := range failed.services {
			rep.Failed = append(rep.Failed, n)
			orphans = append(orphans, d.FailService(n)...)
		}
		if err := d.recoverOrphans(ctx, orphans, rep); err != nil {
			return nil, rep, err
		}
	}
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
	// Declined counts typed refusals (admission control or breakers).
	Declined int
	// Degraded lists regions force-assembled from the fallback frame.
	Degraded []image.Rectangle
	// Latency is the frame's wall time on the session clock.
	Latency time.Duration
}

// tileParts is the framebuffer-distribution partitioner (§3.2.5): the
// frame is cut into bands proportional to speed across the attached
// services whose breakers are not open. It plans from *cached*
// capacities — interrogating a stalled peer would block planning — and
// ranks the same peers by spare capacity as re-issue alternates.
func (d *Distributor) tileParts(snap snapshot, w, h int) (*plan, error) {
	for name, h := range snap.handles {
		if ar, ok := h.(AvailabilityReporter); ok {
			available := ar.Available()
			d.mu.Lock()
			d.engine.SetAvailable(name, available)
			d.mu.Unlock()
		}
	}
	var caps []balance.ServiceCapacity
	for _, sl := range d.LoadSnapshot() {
		if snap.handles[sl.Capacity.Name] != nil && !sl.Unavailable {
			caps = append(caps, sl.Capacity)
		}
	}
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
	sort.SliceStable(caps, func(i, j int) bool { return caps[i].Spare() > caps[j].Spare() })
	p.alternates = caps
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
// overload protection end to end: tileParts plans around breaker-open
// peers, renderFrame hedges stragglers and cuts the collection at the
// hard deadline, assembleTiles degrades what is still missing. The frame
// is therefore never lost and never later than the deadline plus one
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
