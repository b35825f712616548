package dataservice

import (
	"context"
	"testing"

	"repro/internal/balance"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
)

// volumeSession hosts a session with one voxel-sphere node.
func volumeSession(t *testing.T) (*Session, scene.NodeID) {
	t.Helper()
	svc := New(Config{Name: "vol-data"})
	sess, err := svc.CreateSession("volume")
	if err != nil {
		t.Fatal(err)
	}
	g := geom.NewVoxelGrid(20, 20, 20, mathx.V3(-1, -1, -1), 2.0/19)
	g.Fill(geom.SphereField(mathx.Vec3{}, 0.8))
	id := sess.AllocID()
	err = sess.ApplyUpdate(&scene.AddNodeOp{
		Parent: scene.RootID, ID: id, Name: "sphere-volume",
		Transform: mathx.Identity(),
		Payload:   &scene.VoxelsPayload{Grid: g, Iso: 0},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	cam := raster.DefaultCamera()
	cam.Eye = mathx.V3(0, 0, 4)
	sess.SetCamera(cameraState(cam), "")
	return sess, id
}

func TestSplitVolumeNode(t *testing.T) {
	sess, id := volumeSession(t)
	sub := &recordingSub{}
	if _, err := sess.Subscribe("watcher", sub); err != nil {
		t.Fatal(err)
	}

	ids, err := sess.SplitVolumeNode(id, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("slabs: %d", len(ids))
	}
	// The original node is gone; the slabs exist; total voxel count
	// exceeds the original (one overlap layer per seam).
	sess.Scene(func(sc *scene.Scene) {
		if sc.Node(id) != nil {
			t.Error("original volume node survives")
		}
		total := 0
		for _, sid := range ids {
			n := sc.Node(sid)
			if n == nil {
				t.Fatalf("slab %d missing", sid)
			}
			vp, ok := n.Payload.(*scene.VoxelsPayload)
			if !ok {
				t.Fatalf("slab %d has kind %v", sid, n.Kind())
			}
			total += len(vp.Grid.Data)
		}
		if total <= 20*20*20 {
			t.Errorf("slab voxels %d, want > original (overlap layers)", total)
		}
	})
	// Every structural change was fanned out as ordinary ops: 1 group +
	// 3 slabs + 1 removal = 5.
	if n, _ := sub.counts(); n != 5 {
		t.Errorf("watcher saw %d ops, want 5", n)
	}
	// Splitting a non-volume node fails.
	if _, err := sess.SplitVolumeNode(scene.RootID, 2); err == nil {
		t.Error("split of group node accepted")
	}
}

func TestRenderVolumeDistributed(t *testing.T) {
	sess, id := volumeSession(t)
	ids, err := sess.SplitVolumeNode(id, 3)
	if err != nil {
		t.Fatal(err)
	}
	_ = ids

	d := sess.NewDistributor(balance.DefaultThresholds())
	sess.AttachDistributor(d)
	d.AddService(&localHandle{newRender("v1", device.SunV880z)})
	d.AddService(&localHandle{newRender("v2", device.SGIOnyx)})
	if _, err := d.Distribute(); err != nil {
		t.Fatal(err)
	}

	// Opaque layers: the blended result covers about what a single
	// whole-volume render covers.
	blended, _, err := d.Render(context.Background(), FrameRequest{W: 96, H: 96, Mode: Slabs, Opacity: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if blended.CoveredPixels() < 200 {
		t.Errorf("blended volume coverage: %d", blended.CoveredPixels())
	}

	// Semi-transparent layers still render, and differ from opaque.
	translucent, _, err := d.Render(context.Background(), FrameRequest{W: 96, H: 96, Mode: Slabs, Opacity: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range blended.Color {
		if blended.Color[i] != translucent.Color[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("opacity has no effect on blended volume")
	}

	// Without a plan there is nothing to render.
	empty := sess.NewDistributor(balance.DefaultThresholds())
	if _, _, err := empty.Render(context.Background(), FrameRequest{W: 32, H: 32, Mode: Slabs, Opacity: 1}); err == nil {
		t.Error("render without distribution accepted")
	}
}

// TestSlabOpacityRefusedBeforeRendering: a slab frame at an opacity no
// blend accepts is refused before any slab is rendered.
func TestSlabOpacityRefusedBeforeRendering(t *testing.T) {
	sess, id := volumeSession(t)
	if _, err := sess.SplitVolumeNode(id, 3); err != nil {
		t.Fatal(err)
	}
	d := sess.NewDistributor(balance.DefaultThresholds())
	rs := newRender("v1", device.SGIOnyx)
	d.AddService(&localHandle{rs})
	if _, err := d.Distribute(); err != nil {
		t.Fatal(err)
	}
	for _, opacity := range []float64{0, -0.5, 1.5} {
		if _, _, err := d.Render(context.Background(), FrameRequest{W: 64, H: 64, Mode: Slabs, Opacity: opacity}); err == nil {
			t.Errorf("opacity %v accepted", opacity)
		}
	}
	if admitted, _ := rs.AdmissionStats(); admitted != 0 {
		t.Errorf("%d slab renders admitted before the opacity was refused", admitted)
	}
}

// TestRenderVolumeManySlabsOneService: a service holding more slabs than
// its admission control lets assists run at once still renders them all
// — a service's parts go out one at a time, never shed by its own queue.
func TestRenderVolumeManySlabsOneService(t *testing.T) {
	sess, id := volumeSession(t)
	slabs, err := sess.SplitVolumeNode(id, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(slabs) <= renderservice.DefaultQueueDepth/2 {
		t.Fatalf("precondition: %d slabs fit the background queue", len(slabs))
	}
	d := sess.NewDistributor(balance.DefaultThresholds())
	d.AddService(&localHandle{newRender("only", device.SGIOnyx)})
	if _, err := d.Distribute(); err != nil {
		t.Fatal(err)
	}
	fb, _, err := d.Render(context.Background(), FrameRequest{W: 64, H: 64, Mode: Slabs, Opacity: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if fb.CoveredPixels() == 0 {
		t.Error("blended volume is empty")
	}
}
