package core

import (
	"bytes"
	"context"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/compositor"
	"repro/internal/dataservice"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/renderservice"
)

// recording keeps what each Render of the handle it wraps returned.
type recording struct {
	dataservice.RenderHandle
	mu    sync.Mutex
	tiles []compositor.Tile
}

func (r *recording) Render(job dataservice.RenderJob) (compositor.Tile, error) {
	tile, err := r.RenderHandle.Render(job)
	r.mu.Lock()
	r.tiles = append(r.tiles, tile)
	r.mu.Unlock()
	return tile, err
}

// socketFanout is a session holding meshes, distributed over two render
// services rs1 and rs2 that each hold its replica and answer a socket
// handle each over an in-process pipe.
func socketFanout(t testing.TB, meshes ...*geom.Mesh) (*dataservice.Session, *dataservice.Distributor, []*recording) {
	t.Helper()
	data := dataservice.New(dataservice.Config{Name: "data"})
	sess, err := data.CreateSession("s")
	if err != nil {
		t.Fatal(err)
	}
	bounds := meshes[0].Bounds()
	for _, m := range meshes {
		if _, err := sess.AddMesh("piece", m, mathx.Identity()); err != nil {
			t.Fatal(err)
		}
		bounds = bounds.Union(m.Bounds())
	}
	cam := raster.DefaultCamera().FitToBounds(bounds, mathx.V3(0.3, 0.2, 1))
	if err := sess.SetCamera(renderservice.StateFromCamera(cam), ""); err != nil {
		t.Fatal(err)
	}
	dist := sess.NewDistributor(balance.DefaultThresholds())
	var handles []*recording
	for _, name := range []string{"rs1", "rs2"} {
		rs := renderservice.New(renderservice.Config{Name: name, Device: device.XeonDesktop, Workers: 1})
		if _, err := rs.OpenSession("s", sess.Snapshot(), cam); err != nil {
			t.Fatal(err)
		}
		dataEnd, renderEnd := net.Pipe()
		t.Cleanup(func() { dataEnd.Close() })
		go rs.ServeClient(renderEnd, 50e6)
		h, err := DialSocketHandle(dataEnd, name, "s")
		if err != nil {
			t.Fatal(err)
		}
		rec := &recording{RenderHandle: h}
		if err := dist.AddService(rec); err != nil {
			t.Fatal(err)
		}
		handles = append(handles, rec)
	}
	if asg, err := dist.Distribute(); err != nil || len(asg) != 2 {
		t.Fatalf("distribute: %v, %v", asg, err)
	}
	return sess, dist, handles
}

// tinted is m in one flat colour.
func tinted(m *geom.Mesh, c mathx.Vec3) *geom.Mesh {
	out := m.Clone()
	out.Colors = make([]mathx.Vec3, len(out.Positions))
	for i := range out.Colors {
		out.Colors[i] = c
	}
	return out
}

// TestSocketPartsPaintAsCompositeAll: a dataset-distributed frame over
// socket handles is CompositeAll over the parts the services sent,
// decoded, in plan order, bit for bit. The two nodes are one sphere in
// two colours, one on each service, so every pixel either drew is a
// tie — which the part planned first wins — and a tile-distributed
// frame of the same session is 0 px off a one-piece render.
func TestSocketPartsPaintAsCompositeAll(t *testing.T) {
	sphere := genmodel.Sphere(mathx.Vec3{}, 1, 24, 12)
	sess, dist, handles := socketFanout(t, tinted(sphere, mathx.V3(1, 0, 0)), tinted(sphere, mathx.V3(0, 0, 1)))
	const w, h = 96, 72
	fb, _, err := dist.Render(context.Background(), dataservice.FrameRequest{W: w, H: h, Mode: dataservice.Subsets})
	if err != nil {
		t.Fatal(err)
	}
	var parts []*raster.Framebuffer // plan order: the services by name
	for _, rec := range handles {
		if len(rec.tiles) != 1 || rec.tiles[0].FB != nil {
			t.Fatalf("%d tiles recorded, want one as sent", len(rec.tiles))
		}
		part, err := rec.tiles[0].Dense()
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, part)
	}
	want, err := compositor.CompositeAll(w, h, parts...)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFramebuffer(fb, want) {
		t.Error("the frame painted from the parts as sent differs from CompositeAll over them decoded")
	}
	reversed, _ := compositor.CompositeAll(w, h, parts[1], parts[0])
	if fb.CoveredPixels() == 0 || sameFramebuffer(fb, reversed) {
		t.Error("the parts do not tie: the test shows nothing about who wins a tie")
	}

	tiled, rep, err := dist.Render(context.Background(), dataservice.FrameRequest{W: w, H: h, Mode: dataservice.Tiles, Timers: dataservice.HedgeConfig{FrameDeadline: 10 * time.Second, HedgeDelay: 5 * time.Second}})
	if err != nil || rep.Parts != 2 || len(rep.Degraded) != 0 {
		t.Fatalf("tiled frame: %+v, %v", rep, err)
	}
	whole, _, err := renderservice.New(renderservice.Config{Name: "one", Device: device.XeonDesktop}).
		RenderSceneOnce(sess.Snapshot(), renderservice.CameraFromState(sess.Camera()), w, h)
	if err != nil {
		t.Fatal(err)
	}
	if !sameFramebuffer(tiled, whole) {
		t.Error("the tile-distributed frame is off a one-piece render")
	}
}

// TestSubsetFrameAllocations: once warm, a 640×480 dataset-distributed
// frame over two socket handles allocates the frame it returns (2.15 MB)
// and what its parts' scenes and replies cost, 3.2 MB in all — not a
// viewport-sized buffer per part on either side of the socket as well,
// which came to 11.8 MB a frame.
func TestSubsetFrameAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("renders 640x480 frames")
	}
	_, dist, _ := socketFanout(t, genmodel.Elle(2000).SplitSpatially(4)...)
	for i := 0; i < 3; i++ {
		if _, _, err := dist.Render(context.Background(), dataservice.FrameRequest{W: 640, H: 480, Mode: dataservice.Subsets}); err != nil {
			t.Fatal(err)
		}
	}
	const frames = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < frames; i++ {
		if _, _, err := dist.Render(context.Background(), dataservice.FrameRequest{W: 640, H: 480, Mode: dataservice.Subsets}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const most = 5 << 20
	if per := (after.TotalAlloc - before.TotalAlloc) / frames; per > most {
		t.Errorf("a frame allocated %d bytes, want at most %d", per, most)
	}
}

// sameFramebuffer compares colour and depth bit for bit.
func sameFramebuffer(a, b *raster.Framebuffer) bool {
	if a.W != b.W || a.H != b.H || !bytes.Equal(a.Color, b.Color) {
		return false
	}
	for i := range a.Depth {
		if math.Float32bits(a.Depth[i]) != math.Float32bits(b.Depth[i]) {
			return false
		}
	}
	return true
}
