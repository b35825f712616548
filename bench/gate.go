package main

import (
	"fmt"
	"hash/fnv"

	"repro/internal/renderservice"
	"repro/internal/scene"
)

// gate checks every op's output. During the warm-up block it compares
// each frame with a one-piece render of the same scene and camera on a
// separate render service and stores the frame's checksum; every timed
// op must then reproduce the checksum stored for its index.
type gate struct {
	ref      *renderservice.Service
	scene    *scene.Scene
	allowed  int
	golden   []uint64
	blockSum uint64
	maxDiff  int

	attempted, failed int
	hedged, degraded  int
	failures          []string
}

func (g *gate) fail(format string, args ...any) {
	g.failed++
	if len(g.failures) < 8 {
		g.failures = append(g.failures, fmt.Sprintf(format, args...))
	}
}

// check judges op i's result; learn is true during the warm-up block.
func (g *gate) check(w workload, i int, res opResult, learn bool) {
	g.attempted++
	g.hedged += res.hedged
	g.degraded += res.degraded
	switch {
	case res.err != nil:
		g.fail("op %d: %v", i, res.err)
		return
	case res.hedged > 0 || res.degraded > 0:
		g.fail("op %d left the plain path: %d hedged or declined, %d degraded tiles", i, res.hedged, res.degraded)
		return
	}
	cam, width, height, ok := w.view(i)
	if !ok {
		return
	}
	if res.frame == nil {
		g.fail("op %d returned no frame", i)
		return
	}
	sum := checksum(res.frame)
	if !learn {
		if sum != g.golden[i] {
			g.fail("op %d: frame checksum %016x, warm-up block had %016x", i, sum, g.golden[i])
		}
		return
	}
	g.golden[i] = sum
	want, _, err := g.ref.RenderSceneOnce(g.scene, cam, width, height)
	if err != nil {
		g.fail("op %d: reference render: %v", i, err)
		return
	}
	diff := diffPixels(want, res.frame)
	if diff > g.maxDiff {
		g.maxDiff = diff
	}
	if diff > g.allowed {
		g.fail("op %d: %d pixels differ from the one-piece render, %d allowed", i, diff, g.allowed)
	}
}

// checkBlock judges the deployment's state after a block.
func (g *gate) checkBlock(w workload, learn bool) {
	sum, err := w.checkBlock(g.ref)
	switch {
	case err != nil:
		g.fail("block check: %v", err)
	case learn:
		g.blockSum = sum
	case sum != g.blockSum:
		g.fail("block ends on state %016x, warm-up block ended on %016x", sum, g.blockSum)
	}
}

// digest folds the stored checksums into one value; it must be the same
// on every run of a seed.
func (g *gate) digest() string {
	h := fnv.New64a()
	for _, s := range append(g.golden[:len(g.golden):len(g.golden)], g.blockSum) {
		var b [8]byte
		for k := range b {
			b[k] = byte(s >> (8 * k))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
