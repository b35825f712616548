package main

import (
	"fmt"
	"hash/fnv"
	"image"
	"time"

	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
)

// opResult is what one closed-loop op gave back.
type opResult struct {
	// frame is the op's visible output, nil for ops that return none.
	frame *raster.Framebuffer
	err   error
	// fanout is how long the camera took to reach every replica, for
	// the ops that wait for it.
	fanout time.Duration
	// commit is how long one Session.ApplyUpdate of a move took, for
	// the ops that make some.
	commit time.Duration
	// hedged and degraded count tiles that left the plain path; either
	// makes the op a failure.
	hedged, degraded int
}

// workload is one fixed op sequence over a rig. A block is ops() calls
// of do, in order, then endBlock; every block repeats the same sequence.
type workload interface {
	// ops is the number of ops in a block.
	ops() int
	// do performs op i and waits for its reply.
	do(i int) opResult
	// view is the camera and size of the frame op i returns; ok is
	// false for workloads whose ops return no frame.
	view(i int) (cam raster.Camera, w, h int, ok bool)
	// allowedDiff is how many pixels op output may differ from the
	// one-piece reference render, fixed at the measured value.
	allowedDiff() int
	// endBlock finishes a block inside its timed span.
	endBlock() error
	// checkBlock verifies the deployment's state after a block, outside
	// the timed span, rendering what it needs on ref. The checksum it
	// returns must be the same after every block.
	checkBlock(ref *renderservice.Service) (uint64, error)
	// startTrace builds what replay needs.
	startTrace() error
	// replay calls each layer on op i's real inputs under root, and
	// returns the part of the op's time those calls account for.
	replay(i int, res opResult, t *tracer, root int) time.Duration
	// deployment is the rig the workload drives.
	deployment() *rig
	// close tears the deployment down and runs any exit check.
	close() error
}

// workloadNames lists the workloads in the order -aa runs them.
var workloadNames = []string{"thin_orbit", "tile_fanout", "subset_fanout", "collab_edit"}

// newWorkload sets a workload's deployment up cold. opsPerBlock 0 picks
// the workload's own block size.
func newWorkload(name string, seed uint64, opsPerBlock int, scratch string) (workload, error) {
	switch name {
	case "thin_orbit":
		return newThinOrbit(seed, opsPerBlock)
	case "tile_fanout":
		return newTileFanout(seed, opsPerBlock)
	case "subset_fanout":
		return newSubsetFanout(seed, opsPerBlock)
	case "collab_edit":
		return newCollabEdit(seed, opsPerBlock, scratch)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// checksum is the FNV-64a of a frame's colour plane.
func checksum(fb *raster.Framebuffer) uint64 {
	h := fnv.New64a()
	h.Write(fb.Color)
	return h.Sum64()
}

// diffPixels counts pixels whose colour differs between two frames of
// the same size; frames of different sizes differ everywhere.
func diffPixels(a, b *raster.Framebuffer) int {
	if a.W != b.W || a.H != b.H {
		return a.W * a.H
	}
	n := 0
	for i := 0; i+2 < len(a.Color); i += 3 {
		if a.Color[i] != b.Color[i] || a.Color[i+1] != b.Color[i+1] || a.Color[i+2] != b.Color[i+2] {
			n++
		}
	}
	return n
}

// rasterScene draws sc's meshes into fb with the rasterizer alone, the
// way a render session does but without the service around it, and
// returns the triangles drawn.
func rasterScene(sc *scene.Scene, cam raster.Camera, fb *raster.Framebuffer, tile image.Rectangle, fullW, fullH, workers int) int {
	r := raster.New(fb)
	r.Opts.Workers = workers
	r.Opts.Tile = tile
	r.Opts.FullW, r.Opts.FullH = fullW, fullH
	tris := 0
	sc.Walk(func(n *scene.Node, world mathx.Mat4) bool {
		if p, ok := n.Payload.(*scene.MeshPayload); ok {
			r.RenderMesh(p.Mesh, world, cam)
			tris += r.TrianglesDrawn
		}
		return true
	})
	return tris
}

// shadowService is a render service outside the deployment, holding its
// own replica of snapshot, on which a traced run replays render calls
// without disturbing the deployment's sessions (their delta-codec
// state, admission estimates and frame counters stay the program's own).
func shadowService(name string, workers int, snapshot *scene.Scene, cam raster.Camera) (*renderservice.Service, *renderservice.Session, error) {
	svc := renderservice.New(renderservice.Config{Name: name, Device: renderDevice, Workers: workers})
	sess, err := svc.OpenSession(sessionName, snapshot, cam)
	return svc, sess, err
}
