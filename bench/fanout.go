package main

import (
	"bytes"
	"context"
	"fmt"
	"image"
	"sort"
	"time"

	"repro/internal/balance"
	"repro/internal/compositor"
	"repro/internal/core"
	"repro/internal/dataservice"
	"repro/internal/marshal"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
	"repro/internal/transport"
)

const (
	fanW, fanH  = 640, 480
	fanServices = 2
	fanWorkers  = 1
	tileOps     = 120
	subsetOps   = 60
)

// hedge keeps RenderTilesHedged's timers far from any op's duration, so
// a slow moment on the host cannot move an op onto the hedge or
// degraded-assembly paths and change the work it does.
var hedge = dataservice.HedgeConfig{FrameDeadline: 4 * time.Second, HedgeDelay: 2 * time.Second}

// fanout is the deployment both distribution workloads run on: the data
// service's distributor driving two single-worker render services over
// socket handles.
type fanout struct {
	rig     *rig
	dist    *dataservice.Distributor
	handles []*core.SocketHandle
	cams    []raster.Camera

	// Traced runs only.
	snapshot *scene.Scene
	shadows  []*renderservice.Service
	replicas []*renderservice.Session
	link     *echoLink
	caps     []balance.ServiceCapacity
}

func newFanout(seed uint64, ops int) (*fanout, error) {
	r, err := newRig(fanServices, fanWorkers)
	if err != nil {
		return nil, err
	}
	f := &fanout{rig: r, cams: orbit(r.base, seed, ops)}
	f.dist = r.sess.NewDistributor(balance.DefaultThresholds())
	r.sess.AttachDistributor(f.dist)
	for i := range r.addrs {
		h, err := r.dialHandle(i)
		if err == nil {
			f.handles = append(f.handles, h)
			err = f.dist.AddService(h)
		}
		if err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *fanout) ops() int { return len(f.cams) }

func (f *fanout) view(i int) (raster.Camera, int, int, bool) {
	return f.cams[i], fanW, fanH, true
}

func (f *fanout) endBlock() error { return nil }

func (f *fanout) checkBlock(*renderservice.Service) (uint64, error) { return 0, nil }

func (f *fanout) deployment() *rig { return f.rig }

func (f *fanout) close() error {
	if f.link != nil {
		f.link.close()
	}
	for _, h := range f.handles {
		h.Close()
	}
	f.rig.close()
	return nil
}

// startTrace gives each render service a shadow with its own replica.
func (f *fanout) startTrace() error {
	f.snapshot = f.rig.sess.Snapshot()
	for i := range f.rig.renders {
		svc, sess, err := shadowService(fmt.Sprintf("shadow-%d", i), fanWorkers, f.snapshot, f.rig.base)
		if err != nil {
			return err
		}
		f.shadows = append(f.shadows, svc)
		f.replicas = append(f.replicas, sess)
		rep := f.rig.renders[i].Capacity()
		f.caps = append(f.caps, balance.ServiceCapacity{
			Name:         f.rig.names[i],
			WorkPerFrame: rep.PolysPerSecond / rep.TargetFPS,
			TextureBytes: rep.TextureMemory,
		})
	}
	var err error
	f.link, err = newEchoLink()
	return err
}

// replayFrameReturn times a rendered buffer's way back to the data
// service — marshal, socket, unmarshal — and returns the time spent
// and the buffer as it arrives.
func (f *fanout) replayFrameReturn(t *tracer, root int, fb *raster.Framebuffer) (time.Duration, *raster.Framebuffer, int) {
	var total time.Duration
	var buf bytes.Buffer
	_, d := t.run(root, "marshal", "frame_write", func() {
		marshal.WriteFrame(&buf, fb, true)
	})
	total += d
	_, d = t.run(root, "transport", "frame_rtt", func() {
		f.link.roundTrip(transport.MsgFrameDepth, buf.Bytes())
	})
	total += d
	var got *raster.Framebuffer
	_, d = t.run(root, "marshal", "frame_read", func() {
		got, _ = marshal.ReadFrame(bytes.NewReader(buf.Bytes()))
	})
	total += d
	if got == nil {
		got = fb
	}
	return total, got, buf.Len()
}

// tileFanout is framebuffer distribution: each op moves the shared
// camera, waits for both replicas to have it, and renders one frame as
// two tiles assembled by the data service.
type tileFanout struct{ *fanout }

func newTileFanout(seed uint64, ops int) (*tileFanout, error) {
	if ops <= 0 {
		ops = tileOps
	}
	f, err := newFanout(seed, ops)
	if err != nil {
		return nil, err
	}
	return &tileFanout{f}, nil
}

func (w *tileFanout) allowedDiff() int { return 0 }

func (w *tileFanout) do(i int) opResult {
	var res opResult
	t0 := time.Now()
	if res.err = w.rig.sess.SetCamera(renderservice.StateFromCamera(w.cams[i]), ""); res.err != nil {
		return res
	}
	if res.err = w.rig.awaitCamera(w.cams[i]); res.err != nil {
		return res
	}
	res.fanout = time.Since(t0)
	fb, rep, err := w.dist.RenderTilesHedged(context.Background(), fanW, fanH, hedge)
	res.frame, res.err = fb, err
	if rep != nil {
		res.hedged = rep.Hedged + rep.Declined
		res.degraded = len(rep.Degraded)
	}
	return res
}

// replay: plan the tiles, then per tile render (rasterizer alone as the
// child), marshal, socket, unmarshal; then assemble. The two tiles'
// chains run in parallel on the real path, one per service, so the
// accounted time takes the slower chain.
func (w *tileFanout) replay(i int, res opResult, t *tracer, root int) time.Duration {
	cam := w.cams[i]
	accounted := res.fanout
	t.add(root, "dataservice", "camera_fanout", time.Now().Add(-res.fanout), res.fanout)

	var plan map[string]image.Rectangle
	_, d := t.run(root, "balance", "distribute_tiles", func() {
		plan = balance.DistributeTiles(fanW, fanH, w.caps)
	})
	accounted += d

	var slowest time.Duration
	var tiles []compositor.Tile
	bytesMoved := 0
	tris, pixels := 0, 0
	for s, name := range w.rig.names {
		rect, ok := plan[name]
		if !ok {
			continue
		}
		var chain time.Duration
		w.replicas[s].SetCamera(cam)
		var frame *renderservice.Frame
		id, d := t.run(root, "renderservice", "render_tile", func() {
			frame, _ = w.replicas[s].RenderTile(rect, fanW, fanH)
		})
		chain += d
		if frame == nil {
			continue
		}
		fb := raster.NewFramebuffer(rect.Dx(), rect.Dy())
		t.run(id, "raster", "render", func() {
			tris += rasterScene(w.snapshot, cam, fb, rect, fanW, fanH, fanWorkers)
		})
		pixels += fb.CoveredPixels()
		d, got, n := w.replayFrameReturn(t, root, frame.FB)
		chain += d
		bytesMoved += n
		tiles = append(tiles, compositor.Tile{Rect: rect, FB: got, Version: frame.Version})
		if chain > slowest {
			slowest = chain
		}
	}
	accounted += slowest
	t.count("raster.triangles_per_op", float64(tris))
	t.count("raster.pixels_per_op", float64(pixels))
	t.count("transport.bytes_per_op", float64(bytesMoved))

	_, d = t.run(root, "compositor", "assemble", func() {
		compositor.AssembleTiles(fanW, fanH, tiles)
	})
	return accounted + d
}

// subsetFanout is dataset distribution: the scene's nodes are split
// between the services once, and each op ships every service its
// subset, collects full-viewport colour+depth buffers and merges them
// by depth.
type subsetFanout struct {
	*fanout
	assignment balance.Assignment
}

func newSubsetFanout(seed uint64, ops int) (*subsetFanout, error) {
	if ops <= 0 {
		ops = subsetOps
	}
	f, err := newFanout(seed, ops)
	if err != nil {
		return nil, err
	}
	w := &subsetFanout{fanout: f}
	if w.assignment, err = f.dist.Distribute(); err != nil {
		f.close()
		return nil, fmt.Errorf("distribute: %w", err)
	}
	return w, nil
}

// allowedDiff is 0: depth-merging the two subsets' buffers reproduces
// the one-piece render exactly on this scene (README.md, "Correctness").
func (w *subsetFanout) allowedDiff() int { return 0 }

func (w *subsetFanout) do(i int) opResult {
	if err := w.rig.sess.SetCamera(renderservice.StateFromCamera(w.cams[i]), ""); err != nil {
		return opResult{err: err}
	}
	fb, err := w.dist.RenderDistributed(fanW, fanH)
	return opResult{frame: fb, err: err}
}

// replay: extract each service's subset (one after the other, as the
// distributor does), then per service marshal the subset, socket,
// unmarshal, render (rasterizer alone as the child) and return the
// buffer; then depth-composite. The per-service chains run in parallel
// on the real path, so the accounted time takes the slower one.
func (w *subsetFanout) replay(i int, _ opResult, t *tracer, root int) time.Duration {
	cam := w.cams[i]
	var accounted time.Duration

	// The node split is planned once, at set-up; it is timed here for
	// the per-layer table but is not on an op's path.
	items := nodeItems(w.snapshot)
	t.run(root, "balance", "distribute_nodes", func() {
		balance.DistributeNodes(items, w.caps)
	})

	names := make([]string, 0, len(w.assignment))
	for name := range w.assignment {
		names = append(names, name)
	}
	sort.Strings(names)

	subsets := make([]*scene.Scene, len(names))
	for s, name := range names {
		_, d := t.run(root, "scene", "extract_subset", func() {
			w.rig.sess.Scene(func(sc *scene.Scene) {
				subsets[s], _ = sc.ExtractSubset(w.assignment[name])
			})
		})
		accounted += d
	}

	var slowest time.Duration
	var parts []*raster.Framebuffer
	bytesMoved, sceneBytes := 0, 0
	tris, pixels := 0, 0
	for s, subset := range subsets {
		if subset == nil {
			continue
		}
		var chain time.Duration
		var buf bytes.Buffer
		_, d := t.run(root, "marshal", "scene_write", func() {
			marshal.WriteScene(&buf, subset)
		})
		chain += d
		_, d = t.run(root, "transport", "scene_rtt", func() {
			w.link.roundTrip(transport.MsgSceneSnapshot, buf.Bytes())
		})
		chain += d
		var arrived *scene.Scene
		_, d = t.run(root, "marshal", "scene_read", func() {
			arrived, _ = marshal.ReadScene(bytes.NewReader(buf.Bytes()))
		})
		chain += d
		if arrived == nil {
			continue
		}
		sceneBytes += buf.Len()

		var fb *raster.Framebuffer
		id, d := t.run(root, "renderservice", "render_subset", func() {
			fb, _, _ = w.shadows[s].RenderSceneOnce(arrived, cam, fanW, fanH)
		})
		chain += d
		if fb == nil {
			continue
		}
		alone := raster.NewFramebuffer(fanW, fanH)
		t.run(id, "raster", "render", func() {
			tris += rasterScene(arrived, cam, alone, image.Rectangle{}, fanW, fanH, fanWorkers)
		})
		pixels += alone.CoveredPixels()

		d, got, n := w.replayFrameReturn(t, root, fb)
		chain += d
		bytesMoved += n
		parts = append(parts, got)
		if chain > slowest {
			slowest = chain
		}
	}
	accounted += slowest
	t.count("raster.triangles_per_op", float64(tris))
	t.count("raster.pixels_per_op", float64(pixels))
	t.count("marshal.scene_bytes", float64(sceneBytes))
	t.count("transport.bytes_per_op", float64(bytesMoved+sceneBytes))

	_, d := t.run(root, "compositor", "depth_composite", func() {
		compositor.CompositeAll(fanW, fanH, parts...)
	})
	return accounted + d
}

// nodeItems lists a scene's payload nodes with their costs, the
// balancer's input.
func nodeItems(sc *scene.Scene) []balance.NodeItem {
	var items []balance.NodeItem
	for _, id := range sc.PayloadIDs() {
		items = append(items, balance.NodeItem{ID: id, Cost: sc.Node(id).Payload.Cost()})
	}
	return items
}
