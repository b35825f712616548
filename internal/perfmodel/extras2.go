package perfmodel

import (
	"context"
	"fmt"
	"image"

	"repro/internal/balance"
	"repro/internal/compositor"
	"repro/internal/core"
	"repro/internal/dataservice"
	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
)

// VolumeDemoResult reports the X5 volume-distribution demo.
type VolumeDemoResult struct {
	Slabs       int
	Services    []string
	Opaque      *raster.Framebuffer
	Translucent *raster.Framebuffer
}

// VolumeDemo runs the §6 voxel-distribution path end to end: a voxel
// sphere is split into slabs through scene ops, distributed across two
// render services, and blended back-to-front — opaque and translucent.
func VolumeDemo() (*VolumeDemoResult, error) {
	svc := dataservice.New(dataservice.Config{Name: "volume-data"})
	sess, err := svc.CreateSession("volume")
	if err != nil {
		return nil, err
	}
	g := geom.NewVoxelGrid(28, 28, 28, mathx.V3(-1, -1, -1), 2.0/27)
	g.Fill(geom.SphereField(mathx.Vec3{}, 0.85))
	id := sess.AllocID()
	err = sess.ApplyUpdate(&scene.AddNodeOp{
		Parent: scene.RootID, ID: id, Name: "volume",
		Transform: mathx.Identity(),
		Payload:   &scene.VoxelsPayload{Grid: g, Iso: 0},
	}, "")
	if err != nil {
		return nil, err
	}
	cam := raster.DefaultCamera()
	cam.Eye = mathx.V3(0.6, 0.5, 3.6)
	if err := sess.SetCamera(renderservice.StateFromCamera(cam), ""); err != nil {
		return nil, err
	}

	slabs, err := sess.SplitVolumeNode(id, 4)
	if err != nil {
		return nil, err
	}
	dist := sess.NewDistributor(balance.DefaultThresholds())
	sess.AttachDistributor(dist)
	for _, name := range []string{"v880z", "onyx"} {
		prof := device.SunV880z
		if name == "onyx" {
			prof = device.SGIOnyx
		}
		rs := renderservice.New(renderservice.Config{Name: name, Device: prof, Workers: 4})
		if err := dist.AddService(&core.LocalHandle{Svc: rs}); err != nil {
			return nil, err
		}
	}
	if _, err := dist.Distribute(); err != nil {
		return nil, err
	}
	opaque, _, err := dist.Render(context.TODO(), dataservice.FrameRequest{W: 320, H: 240, Mode: dataservice.Slabs, Opacity: 1})
	if err != nil {
		return nil, err
	}
	translucent, _, err := dist.Render(context.TODO(), dataservice.FrameRequest{W: 320, H: 240, Mode: dataservice.Slabs, Opacity: 0.35})
	if err != nil {
		return nil, err
	}
	return &VolumeDemoResult{
		Slabs:       len(slabs),
		Services:    dist.ServiceNames(),
		Opaque:      opaque,
		Translucent: translucent,
	}, nil
}

// SyncDemoRow traces one step of the tile synchronizer demo.
type SyncDemoRow struct {
	Event   string
	Synced  bool
	Pending int
	Torn    int
}

// SyncDemo walks the §5.5 synchronization story: tiles arrive at skewed
// versions (forced assembly tears), the stale tile catches up, and the
// synchronized assembly is seam-free.
func SyncDemo() ([]SyncDemoRow, error) {
	rects := compositor.SplitTiles(160, 120, 2, 1)
	sync, err := compositor.NewSynchronizer(160, 120, rects)
	if err != nil {
		return nil, err
	}
	mkTile := func(rect image.Rectangle, version uint64) compositor.Tile {
		fb := raster.NewFramebuffer(rect.Dx(), rect.Dy())
		return compositor.Tile{Rect: rect, FB: fb, Version: version}
	}
	var rows []SyncDemoRow
	record := func(event string, torn int) {
		rows = append(rows, SyncDemoRow{
			Event: event, Synced: sync.Synced(), Pending: sync.Pending(), Torn: torn,
		})
	}
	if err := sync.Submit(mkTile(rects[0], 8)); err != nil {
		return nil, err
	}
	record("local tile v8 arrives", 0)
	if err := sync.Submit(mkTile(rects[1], 7)); err != nil {
		return nil, err
	}
	// Best-effort assembly (the paper's original behaviour) tears.
	_, rep, err := sync.Assemble(true)
	if err != nil {
		return nil, err
	}
	record("remote tile v7 arrives; forced assembly", rep.TornSeams)
	if err := sync.Submit(mkTile(rects[1], 8)); err != nil {
		return nil, err
	}
	_, rep, err = sync.Assemble(false)
	if err != nil {
		return nil, err
	}
	record("remote tile v8 arrives; synchronized assembly", rep.TornSeams)
	return rows, nil
}

// FormatSyncDemo renders the trace.
func FormatSyncDemo(rows []SyncDemoRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Event,
			fmt.Sprintf("%v", r.Synced),
			fmt.Sprintf("%d", r.Pending),
			fmt.Sprintf("%d", r.Torn),
		})
	}
	return FormatTable([]string{"Event", "Synced", "Stale tiles", "Torn seams"}, out)
}
