package renderservice

import (
	"image"
	"runtime"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/scene"
	"repro/internal/telemetry"
)

// pinnedScene is a galleon large enough for the rasterizer to fork its
// vertex and setup stages, plus bob's avatar, which is too small to.
func pinnedScene(t *testing.T) *scene.Scene {
	t.Helper()
	s := scene.New()
	for _, op := range []*scene.AddNodeOp{
		{Name: "ship", Transform: mathx.Identity(), Payload: &scene.MeshPayload{Mesh: genmodel.Galleon(6000)}},
		{Name: "avatar:bob", Transform: mathx.Translate(mathx.V3(0, 0, 6)),
			Payload: &scene.AvatarPayload{User: "bob", Color: mathx.V3(1, 0, 0)}},
	} {
		op.Parent, op.ID = scene.RootID, s.AllocID()
		if err := s.ApplyOp(op); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// What a frame is charged — the triangles the rasterizer reports drawn,
// and the modeled device time worked out from them — feeds admission,
// load reports and the planner, so it is part of the service's contract.
// The values are the ones this scene had before the rasterizer's vertex
// and setup stages ran across workers and before triangles that cover no
// pixel centre stopped taking a setup slot; neither may move them. The
// one thing that may move a tile's charge is a node whose bounds miss
// the tile's own frustum (raster.Renderer.Frustum) and so is not drawn
// there — here both nodes reach both tiles, so nothing is culled.
func TestRenderChargesArePinned(t *testing.T) {
	const (
		wantFrame = 16395564 * time.Nanosecond
		wantLeft  = 15388655 * time.Nanosecond
		wantRight = 15681262 * time.Nanosecond
		wantTris  = 8271 // one frame and the two tiles
	)
	for _, workers := range []int{1, 2, 3, 5, 8} {
		met := telemetry.NewRegistry(nil)
		svc := New(Config{Name: "pin", Device: device.CentrinoLaptop, Workers: workers, Metrics: met})
		sc := pinnedScene(t)
		sess, err := svc.OpenSession("s", sc, testCamera(sc))
		if err != nil {
			t.Fatal(err)
		}
		frame, err := sess.RenderFrame(200, 150, "alice")
		if err != nil {
			t.Fatal(err)
		}
		left, err := sess.RenderTile(image.Rect(0, 0, 83, 150), 200, 150)
		if err != nil {
			t.Fatal(err)
		}
		right, err := sess.RenderTile(image.Rect(83, 0, 200, 150), 200, 150)
		if err != nil {
			t.Fatal(err)
		}
		if frame.DeviceTime != wantFrame || left.DeviceTime != wantLeft || right.DeviceTime != wantRight {
			t.Errorf("Workers=%d: device time frame %v tiles %v, %v; want %v, %v, %v", workers,
				frame.DeviceTime, left.DeviceTime, right.DeviceTime, wantFrame, wantLeft, wantRight)
		}
		if tris := met.Snapshot().CounterValue("pin", "raster_triangles_total", ""); tris != wantTris {
			t.Errorf("Workers=%d: raster_triangles_total = %d, want %d", workers, tris, wantTris)
		}
		// The tiles are the frame.
		for _, tile := range []struct {
			x0 int
			f  *Frame
		}{{0, left}, {83, right}} {
			for y := 0; y < tile.f.FB.H; y++ {
				for x := 0; x < tile.f.FB.W; x++ {
					tr, tg, tb := tile.f.FB.At(x, y)
					fr, fg, fb := frame.FB.At(tile.x0+x, y)
					if tr != fr || tg != fg || tb != fb {
						t.Fatalf("Workers=%d: tile at x=%d differs from the frame at (%d,%d)", workers, tile.x0, x, y)
					}
				}
			}
		}
		sess.Close()
	}
}

// A frame pays for what changed, and between two frames of a replica
// nothing about the rasterizer's working memory does: once two frames
// have sized the replica's scratch, a frame allocates its framebuffer and
// bookkeeping that does not grow with the scene. A renderer that went
// back to building its vertex or setup arrays per frame (312 bytes a
// triangle) would fail here, not in a benchmark. The second case is the
// bench's thin frame, eight slabs drawn as one batch, which holds every
// slab's records at once: its scratch must be reused, not regrown.
func TestSteadyStateFrameAllocatesOnlyItsFramebuffer(t *testing.T) {
	pinned := pinnedScene(t)
	elle, elleCam := elleSlabs(t, genmodel.PaperElleTriangles)
	for _, c := range []struct {
		name string
		sc   *scene.Scene
		cam  raster.Camera
		w, h int
	}{
		{"pinned", pinned, testCamera(pinned), 200, 150},
		{"elle-slabs", elle, elleCam, 400, 400},
	} {
		t.Run(c.name, func(t *testing.T) {
			w, h := c.w, c.h
			svc := New(Config{Name: "steady", Device: device.CentrinoLaptop, Workers: 2})
			sess, err := svc.OpenSession("s", c.sc, c.cam)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			frame := func() uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := sess.RenderFrame(w, h, "alice"); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			frame()
			frame()
			// The least of several frames: a collection may empty the pools
			// between two of them (and the race detector makes sync.Pool drop
			// a quarter of what it is given), which costs that frame a refill
			// but is not what a frame costs.
			least := frame()
			for i := 0; i < 15; i++ {
				least = min(least, frame())
			}
			framebuffer := uint64(w * h * (3 + 4))
			// 64 KB covers the allocator rounding the two planes up to its size
			// classes, a frame's closures, wait groups and span (8 KB together),
			// and a band's 16 KB span buffer or two refilled; the pinned scene's
			// vertex and setup scratch is 2.5 MB, the slabs' 4 MB.
			if most := framebuffer + 64<<10; least > most {
				t.Errorf("a steady-state frame allocated %d bytes, want at most %d (a %d-byte framebuffer and 64 KB)",
					least, most, framebuffer)
			}
			t.Logf("steady-state frame: %d bytes over its %d-byte framebuffer", least-framebuffer, framebuffer)
		})
	}
}
