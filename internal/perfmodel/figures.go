package perfmodel

import (
	"fmt"
	"image"
	"strings"
	"time"

	"repro/internal/collab"
	"repro/internal/compositor"
	"repro/internal/device"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/netsim"
	"repro/internal/raster"
	"repro/internal/scene"
	"repro/internal/uddi"
	"repro/internal/wsdl"
)

// Figure2 renders the two benchmark models at the PDA's 200x200 frame
// size (the Zaurus screenshots). scale reduces the triangle budget for
// fast test runs; 1 uses the paper's counts.
func Figure2(scale float64) (hand, skeleton *raster.Framebuffer, err error) {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	mk := func(name string, target int) (*raster.Framebuffer, error) {
		mesh, err := genmodel.ByName(name, target)
		if err != nil {
			return nil, err
		}
		fb := raster.NewFramebuffer(200, 200)
		r := raster.New(fb)
		r.Opts.Workers = 4
		cam := raster.DefaultCamera().FitToBounds(mesh.Bounds(), mathx.V3(0.25, 0.35, 1))
		r.RenderMesh(mesh, mathx.Identity(), cam)
		if fb.CoveredPixels() == 0 {
			return nil, fmt.Errorf("perfmodel: %s rendered empty", name)
		}
		return fb, nil
	}
	hand, err = mk(genmodel.NameSkeletalHand, int(float64(genmodel.PaperHandTriangles)*scale))
	if err != nil {
		return nil, nil, err
	}
	skeleton, err = mk(genmodel.NameSkeleton, int(float64(genmodel.PaperSkeletonTriangles)*scale))
	if err != nil {
		return nil, nil, err
	}
	return hand, skeleton, nil
}

// Figure3 renders the collaborative view: the skeletal hand scene seen by
// a local user, with the remote user "Desktop" visible as an avatar cone.
func Figure3(scale float64) (*raster.Framebuffer, error) {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	mesh := genmodel.SkeletalHand(int(float64(genmodel.PaperHandTriangles) * scale))
	s := scene.New()
	id := s.AllocID()
	err := s.ApplyOp(&scene.AddNodeOp{
		Parent: scene.RootID, ID: id, Name: "hand",
		Transform: mathx.Identity(), Payload: &scene.MeshPayload{Mesh: mesh},
	})
	if err != nil {
		return nil, err
	}
	local := raster.DefaultCamera().FitToBounds(mesh.Bounds(), mathx.V3(0.2, 0.3, 1))
	// The remote user hovers close over the model so their avatar cone is
	// inside the local user's view.
	remote := local.Orbit(0.55, 0.3).Dolly(0.5)
	for _, join := range []struct {
		user string
		cam  raster.Camera
	}{{"local", local}, {"Desktop", remote}} {
		op, err := collab.JoinSession(s, join.user, join.cam)
		if err != nil {
			return nil, err
		}
		if err := s.ApplyOp(op); err != nil {
			return nil, err
		}
	}
	fb := raster.NewFramebuffer(400, 300)
	r := raster.New(fb)
	r.Opts.Workers = 4
	s.Walk(func(n *scene.Node, world mathx.Mat4) bool {
		if mp, ok := n.Payload.(*scene.MeshPayload); ok {
			r.RenderMesh(mp.Mesh, world, local)
		}
		return true
	})
	before := fb.CoveredPixels()
	if drawn := collab.RenderAvatars(r, s, local, "local"); drawn != 1 {
		return nil, fmt.Errorf("perfmodel: drew %d avatars, want 1", drawn)
	}
	if fb.CoveredPixels() <= before {
		return nil, fmt.Errorf("perfmodel: remote avatar not visible in the local view")
	}
	return fb, nil
}

// Figure4 builds the testbed's registry content and returns the browser
// listing: two machines, a data service with sessions and render
// services with instances.
func Figure4() (string, error) {
	reg := uddi.NewRegistry()
	dataTM, err := reg.SaveTModel(wsdl.DataServicePortType, "RAVE data service API", "")
	if err != nil {
		return "", err
	}
	renderTM, err := reg.SaveTModel(wsdl.RenderServicePortType, "RAVE render service API", "")
	if err != nil {
		return "", err
	}
	adre, _ := reg.SaveBusiness("RAVE@adrenochrome", "")
	tower, _ := reg.SaveBusiness("RAVE@tower", "")
	skull, _ := reg.SaveService(adre.Key, "Skull")
	skullR, _ := reg.SaveService(adre.Key, "Skull-render")
	towerR, _ := reg.SaveService(tower.Key, "Skull-internal")
	if _, err := reg.SaveBinding(skull.Key, "tcp://adrenochrome:9000", []string{dataTM.Key}); err != nil {
		return "", err
	}
	if _, err := reg.SaveBinding(skullR.Key, "tcp://adrenochrome:9001", []string{renderTM.Key}); err != nil {
		return "", err
	}
	if _, err := reg.SaveBinding(towerR.Key, "tcp://tower:9001", []string{renderTM.Key}); err != nil {
		return "", err
	}
	return RenderRegistryListing(reg.Dump()), nil
}

// RenderRegistryListing formats registry entries as the Figure 4 browser
// tree.
func RenderRegistryListing(entries []uddi.Entry) string {
	var b strings.Builder
	b.WriteString("UDDI registry\n")
	lastBiz := ""
	for _, e := range entries {
		if e.Business != lastBiz {
			fmt.Fprintf(&b, "+- %s\n", e.Business)
			lastBiz = e.Business
		}
		fmt.Fprintf(&b, "|  +- %s @ %s (%s)\n", e.Service, e.AccessPoint, strings.Join(e.TModels, ","))
		fmt.Fprintf(&b, "|  |  +- [Create new instance]\n")
	}
	return b.String()
}

// TileLagRow is one row of the Figure 5 analysis: the delay between a
// local scene change and the arrival of the matching remote tile.
type TileLagRow struct {
	Model string
	Lag   time.Duration
	Paper float64
}

// Figure5Lag models the remote-tile update lag over 100 Mbit ethernet for
// the two models the paper discusses (galleon ~0.05 s, skeletal hand
// ~0.3 s).
func Figure5Lag() []TileLagRow {
	link := netsim.Ethernet100()
	const tileW, tileH = 300, 300
	tileBytes := tileW * tileH * (3 + 4) // color + float32 depth
	rows := []TileLagRow{
		{Model: "Galleon", Paper: 0.05},
		{Model: "Skeletal Hand", Paper: 0.3},
	}
	tris := map[string]int{
		"Galleon":       genmodel.PaperGalleonTriangles,
		"Skeletal Hand": genmodel.PaperHandTriangles,
	}
	weight := map[string]float64{
		"Galleon":       device.WeightGalleon,
		"Skeletal Hand": device.WeightHand,
	}
	for i := range rows {
		w := device.Workload{
			Triangles:   tris[rows[i].Model],
			BatchWeight: weight[rows[i].Model],
			Pixels:      tileW * tileH,
		}
		render := device.CentrinoLaptop.OffScreenTime(w)
		transfer := link.TransferTime(tileBytes)
		// Update-op propagation to the remote service.
		rows[i].Lag = link.Latency + render + transfer
	}
	return rows
}

// Figure5Tear renders the galleon as two tiles at different scene
// versions (the remote tile stalled one update behind) and returns the
// torn composite plus the tear report — the visible seam of Figure 5.
func Figure5Tear() (*raster.Framebuffer, compositor.TearReport, error) {
	mesh := genmodel.Galleon(4000)
	s := scene.New()
	id := s.AllocID()
	err := s.ApplyOp(&scene.AddNodeOp{
		Parent: scene.RootID, ID: id, Name: "galleon",
		Transform: mathx.Identity(), Payload: &scene.MeshPayload{Mesh: mesh},
	})
	if err != nil {
		return nil, compositor.TearReport{}, err
	}
	cam := raster.DefaultCamera().FitToBounds(mesh.Bounds(), mathx.V3(0.15, 0.2, 1))
	const W, H = 400, 300

	renderTile := func(sc *scene.Scene, rect image.Rectangle) *raster.Framebuffer {
		fb := raster.NewFramebuffer(rect.Dx(), rect.Dy())
		r := raster.New(fb)
		r.Opts.Tile = rect
		r.Opts.FullW, r.Opts.FullH = W, H
		sc.Walk(func(n *scene.Node, world mathx.Mat4) bool {
			if mp, ok := n.Payload.(*scene.MeshPayload); ok {
				r.RenderMesh(mp.Mesh, world, cam)
			}
			return true
		})
		return fb
	}

	rects := compositor.SplitTiles(W, H, 2, 1)
	// The "remote" (right) tile renders the stale scene; the local tile
	// then renders after the user rotates the model.
	stale := s.Clone()
	rightFB := renderTile(stale, rects[1])
	rightVersion := stale.Version

	if err := s.ApplyOp(&scene.SetTransformOp{ID: id, Transform: mathx.RotateY(0.25)}); err != nil {
		return nil, compositor.TearReport{}, err
	}
	leftFB := renderTile(s, rects[0])

	tiles := []compositor.Tile{
		{Rect: rects[0], FB: leftFB, Version: s.Version},
		{Rect: rects[1], FB: rightFB, Version: rightVersion},
	}
	rep := compositor.DetectTearing(tiles)
	fb, err := compositor.AssembleTiles(W, H, tiles)
	if err != nil {
		return nil, rep, err
	}
	return fb, rep, nil
}

// FormatFigure5 renders the lag table.
func FormatFigure5(rows []TileLagRow, rep compositor.TearReport) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Model,
			fmt.Sprintf("%.3fs (paper ~%.2fs)", r.Lag.Seconds(), r.Paper),
		})
	}
	table := FormatTable([]string{"Model", "Tile update lag"}, out)
	return table + fmt.Sprintf("\nTorn seams in 2-tile composite with stale remote tile: %d (version %d vs %d)\n",
		rep.TornSeams, rep.MinVersion, rep.MaxVersion)
}
