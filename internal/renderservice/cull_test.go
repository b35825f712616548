package renderservice

import (
	"fmt"
	"image"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/balance"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/scene"
	"repro/internal/telemetry"
)

// node is a payload node for addNodes.
type node struct {
	name string
	tr   mathx.Mat4
	p    scene.Payload
}

// addNodes adds the nodes under the root, in order.
func addNodes(t testing.TB, s *scene.Scene, nodes ...node) {
	t.Helper()
	for _, n := range nodes {
		if err := s.ApplyOp(&scene.AddNodeOp{Parent: scene.RootID, ID: s.AllocID(), Name: n.name, Transform: n.tr, Payload: n.p}); err != nil {
			t.Fatal(err)
		}
	}
}

// elleSlabs is the bench's scene at a given size: Elle cut into eight
// spatial slabs, one node each, and the camera the bench orbits from.
func elleSlabs(t testing.TB, tris int) (*scene.Scene, raster.Camera) {
	t.Helper()
	mesh := genmodel.Elle(tris)
	s := scene.New()
	for i, piece := range mesh.SplitSpatially(8) {
		addNodes(t, s, node{fmt.Sprintf("elle-part-%d", i), mathx.Identity(), &scene.MeshPayload{Mesh: piece}})
	}
	return s, raster.DefaultCamera().FitToBounds(mesh.Bounds(), mathx.V3(0.3, 0.2, 1))
}

// cullScene is elleSlabs plus a node of every other payload kind, each
// of which writes pixels its nominal box alone would not predict: bob's
// avatar (its cone, turned to point down the screen, lies below the
// payload's box), a point cloud (a point left of the image lands in
// column 0) and a voxel grid (a splat reaches up to seven pixels right
// of and below its cell).
func cullScene(t testing.TB) (*scene.Scene, raster.Camera) {
	s, cam := elleSlabs(t, 12000)
	rng := rand.New(rand.NewSource(5))
	cloud := &geom.PointCloud{}
	for i := 0; i < 400; i++ {
		cloud.Points = append(cloud.Points, mathx.V3(rng.Float64()*4-2, rng.Float64()*8, rng.Float64()*2-1))
	}
	grid := geom.NewVoxelGrid(6, 6, 6, mathx.V3(0.8, 1.5, 0.2), 0.35)
	for k := 0; k < 6; k++ {
		for j := 0; j < 6; j++ {
			for i := 0; i < 6; i++ {
				grid.Set(i, j, k, float32((i+2*j+3*k)%7)-3)
			}
		}
	}
	addNodes(t, s,
		node{"avatar:bob", mathx.Translate(mathx.V3(-1.2, 5.5, 1.5)).Mul(mathx.RotateX(math.Pi / 2)),
			&scene.AvatarPayload{User: "bob", Color: mathx.V3(1, 0, 0)}},
		node{"cloud", mathx.Identity(), &scene.PointsPayload{Cloud: cloud}},
		node{"volume", mathx.Identity(), &scene.VoxelsPayload{Grid: grid, Iso: 0}})
	return s, cam
}

// bands returns DistributeTiles' horizontal bands for services of the
// given speeds, in top-to-bottom order.
func bands(w, h int, speeds ...float64) []image.Rectangle {
	var caps []balance.ServiceCapacity
	for i, sp := range speeds {
		caps = append(caps, balance.ServiceCapacity{Name: fmt.Sprintf("s%d", i), WorkPerFrame: sp})
	}
	var out []image.Rectangle
	for _, r := range balance.DistributeTiles(w, h, caps) {
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b image.Rectangle) int { return a.Min.Y - b.Min.Y })
	return out
}

// trianglesDrawn is the service's raster_triangles_total so far.
func trianglesDrawn(met *telemetry.Registry, name string) int64 {
	return met.Snapshot().CounterValue(name, "raster_triangles_total", "")
}

// A part of a distributed frame culls nodes against its own rectangle,
// and that must not change a pixel: every tile, of every shape a
// distributor or a test can ask for, is the crop of the frame it
// belongs to, colour and depth, byte for byte — under cameras that
// orbit, close in, and sit inside the model so nodes straddle the near
// plane. The tiles together must set up fewer triangles than one frame
// per tile, or nothing was culled and the test proves nothing.
func TestTileIsCropOfFrame(t *testing.T) {
	sc, base := cullScene(t)
	cams := map[string]raster.Camera{
		"bench":  base,
		"orbit":  base.Orbit(1.9, 0.15),
		"below":  base.Orbit(4.1, -0.3),
		"close":  base.Dolly(0.45),
		"inside": base.Orbit(0.7, 0).Dolly(0.08),
	}
	// The inside camera must really cut nodes with its near plane: some
	// node has box corners on both sides of it.
	near := mathx.FrustumFromMatrix(cams["inside"].ViewProjection(4.0 / 3))[4]
	straddling := 0
	sc.Walk(func(n *scene.Node, world mathx.Mat4) bool {
		if n.Payload != nil {
			b := n.Payload.BoundsLocal().Transform(world)
			in, out := false, false
			for _, x := range []float64{b.Min.X, b.Max.X} {
				for _, y := range []float64{b.Min.Y, b.Max.Y} {
					for _, z := range []float64{b.Min.Z, b.Max.Z} {
						d := near.SignedDist(mathx.V3(x, y, z))
						in, out = in || d > 0, out || d < 0
					}
				}
			}
			if in && out {
				straddling++
			}
		}
		return true
	})
	if straddling == 0 {
		t.Fatal("no node straddles the inside camera's near plane")
	}

	type layout struct {
		fullW, fullH int
		tiles        []image.Rectangle
	}
	var rows []image.Rectangle
	for y := 0; y < 120; y++ {
		rows = append(rows, image.Rect(0, y, 160, y+1))
	}
	layouts := map[string]layout{
		"two bands":   {160, 120, bands(160, 120, 1, 1)},
		"three bands": {160, 120, bands(160, 120, 1, 2, 3)},
		"columns": {160, 120, []image.Rectangle{image.Rect(0, 0, 37, 120), image.Rect(37, 0, 80, 120),
			image.Rect(80, 0, 123, 120), image.Rect(123, 0, 160, 120)}},
		"one-row tiles": {160, 120, rows},
		"odd":           {151, 97, []image.Rectangle{image.Rect(13, 7, 110, 38)}},
	}

	for _, workers := range []int{1, 2} {
		met := telemetry.NewRegistry(nil)
		svc := New(Config{Name: "cull", Device: device.CentrinoLaptop, Workers: workers, Metrics: met})
		sess, err := svc.OpenSession("s", sc, base)
		if err != nil {
			t.Fatal(err)
		}
		var tileTris, framesTris int64
		for camName, cam := range cams {
			sess.SetCamera(cam)
			for name, l := range layouts {
				before := trianglesDrawn(met, "cull")
				frame, err := sess.RenderTile(image.Rect(0, 0, l.fullW, l.fullH), l.fullW, l.fullH)
				if err != nil {
					t.Fatal(err)
				}
				perFrame := trianglesDrawn(met, "cull") - before
				for _, rect := range l.tiles {
					before := trianglesDrawn(met, "cull")
					tile, err := sess.RenderTile(rect, l.fullW, l.fullH)
					if err != nil {
						t.Fatal(err)
					}
					tileTris += trianglesDrawn(met, "cull") - before
					framesTris += perFrame
					want, err := frame.FB.SubTile(rect)
					if err != nil {
						t.Fatal(err)
					}
					if i := firstDiff(tile.FB, want); i >= 0 {
						t.Fatalf("Workers=%d camera %s layout %s: tile %v differs from the frame's crop at pixel %d",
							workers, camName, name, rect, i)
					}
				}
			}
		}
		sess.Close()
		if tileTris >= framesTris {
			t.Errorf("Workers=%d: tiles set up %d triangles, one frame per tile %d — nothing was culled",
				workers, tileTris, framesTris)
		}
		t.Logf("Workers=%d: tiles set up %d triangles, one frame per tile would be %d", workers, tileTris, framesTris)
	}
}

// firstDiff is the first pixel whose colour or depth bits differ between
// two framebuffers of one size, or -1.
func firstDiff(a, b *raster.Framebuffer) int {
	for i := range a.Depth {
		if math.Float32bits(a.Depth[i]) != math.Float32bits(b.Depth[i]) ||
			a.Color[3*i] != b.Color[3*i] || a.Color[3*i+1] != b.Color[3*i+1] || a.Color[3*i+2] != b.Color[3*i+2] {
			return i
		}
	}
	return -1
}

// A tile is charged — device time and raster_triangles_total — for the
// nodes that reach it and nothing else: with one ship left of the
// frame's centre and one right of it, each half is charged exactly what
// it is charged with its own ship alone in the scene, and the two halves
// together what the frame is.
func TestTileChargedOnlyForNodesReachingIt(t *testing.T) {
	const w, h = 160, 100
	ship := genmodel.Galleon(3000)
	left, right := mathx.Translate(mathx.V3(-6, 0, 0)), mathx.Translate(mathx.V3(6, 0, 0))
	cam := raster.DefaultCamera().FitToBounds(ship.Bounds().Transform(left).Union(ship.Bounds().Transform(right)), mathx.V3(0, 0, 1))
	render := func(rect image.Rectangle, nodes ...node) (*Frame, int64) {
		t.Helper()
		sc := scene.New()
		addNodes(t, sc, nodes...)
		met := telemetry.NewRegistry(nil)
		svc := New(Config{Name: "charge", Device: device.CentrinoLaptop, Workers: 2, Metrics: met})
		sess, err := svc.OpenSession("s", sc, cam)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		f, err := sess.RenderTile(rect, w, h)
		if err != nil {
			t.Fatal(err)
		}
		return f, trianglesDrawn(met, "charge")
	}
	l := node{"left", left, &scene.MeshPayload{Mesh: ship}}
	r := node{"right", right, &scene.MeshPayload{Mesh: ship}}
	halves := []struct {
		rect image.Rectangle
		own  node
	}{
		{image.Rect(0, 0, w/2, h), l},
		{image.Rect(w/2, 0, w, h), r},
	}
	_, frameTris := render(image.Rect(0, 0, w, h), l, r)
	var sum int64
	for _, half := range halves {
		got, gotTris := render(half.rect, l, r)
		alone, aloneTris := render(half.rect, half.own)
		if gotTris == 0 || gotTris != aloneTris || got.DeviceTime != alone.DeviceTime {
			t.Errorf("tile %v charged %d triangles, %v; its own ship alone %d, %v",
				half.rect, gotTris, got.DeviceTime, aloneTris, alone.DeviceTime)
		}
		sum += gotTris
	}
	if sum != frameTris {
		t.Errorf("the halves set up %d triangles, the frame %d", sum, frameTris)
	}
}

// BenchmarkRenderTile is one tile_fanout op's rendering without the
// deployment around it: the bench scene (Elle at the paper's 50 k
// triangles in eight slabs) on a 120-step orbit, each op rendering the
// 640x480 frame's top and bottom halves on a one-worker service.
func BenchmarkRenderTile(b *testing.B) {
	const w, h, steps = 640, 480, 120
	sc, base := elleSlabs(b, genmodel.PaperElleTriangles)
	met := telemetry.NewRegistry(nil)
	svc := New(Config{Name: "bench", Device: device.AthlonDesktop, Workers: 1, Metrics: met})
	sess, err := svc.OpenSession("s", sc, base)
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	halves := bands(w, h, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.SetCamera(base.Orbit(float64(i%steps)*2*math.Pi/steps, 0))
		for _, rect := range halves {
			if _, err := sess.RenderTile(rect, w, h); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(trianglesDrawn(met, "bench"))/float64(b.N), "triangles/op")
}
