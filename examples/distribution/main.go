// Distribution: the §3.2.5/§3.2.7 workflow end to end. A dataset too
// heavy for the first render service is refused with an explanatory
// error; the data service recruits a capable render service through
// UDDI, plans a dataset distribution, renders the scene as depth-
// composited subsets, plans framebuffer tiles proportional to speed, and
// finally migrates nodes when one service becomes overloaded.
package main

import (
	"context"
	"errors"
	"fmt"
	"image/png"
	"log"
	"os"

	"repro/internal/balance"
	"repro/internal/core"
	"repro/internal/dataservice"
	"repro/internal/device"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/transport"
	"repro/internal/wsdl"
)

func main() {
	dep, err := core.NewDeployment("dist-data")
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()

	// A heavyweight scene: the Elle model split into 8 nodes so it can be
	// distributed at node granularity.
	full := genmodel.Elle(genmodel.PaperElleTriangles)
	sess, err := dep.Data.CreateSession("elle")
	if err != nil {
		log.Fatal(err)
	}
	for i, piece := range full.SplitSpatially(8) {
		if _, err := sess.AddMesh(fmt.Sprintf("elle-part-%d", i), piece, mathx.Identity()); err != nil {
			log.Fatal(err)
		}
	}
	fitCam := renderservice.StateFromCamera(
		raster.DefaultCamera().FitToBounds(full.Bounds(), mathx.V3(0.3, 0.2, 1)))
	if err := sess.SetCamera(fitCam, ""); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session \"elle\": %d nodes, %d triangles total\n",
		len(sess.Snapshot().PayloadIDs()), sess.Snapshot().TotalCost().Triangles)

	dist := sess.NewDistributor(balance.DefaultThresholds())
	sess.AttachDistributor(dist)

	// 1. Only a PDA-class service is attached: the request is refused
	// with an explanatory error (§3.2.5).
	pda := renderservice.New(renderservice.Config{Name: "pda", Device: device.ZaurusPDA, Workers: 1})
	if err := dist.AddService(&core.LocalHandle{Svc: pda}); err != nil {
		log.Fatal(err)
	}
	_, err = dist.Distribute()
	var insufficient *balance.ErrInsufficient
	if errors.As(err, &insufficient) {
		fmt.Println("refused as the paper requires:", err)
	} else {
		log.Fatalf("expected a capacity refusal, got %v", err)
	}

	// 2. Recruitment: capable services are registered in UDDI; the data
	// service discovers and recruits them.
	laptop := renderservice.New(renderservice.Config{Name: "laptop", Device: device.CentrinoLaptop, Workers: 4})
	desktop := renderservice.New(renderservice.Config{Name: "desktop", Device: device.AthlonDesktop, Workers: 4})
	proxy := dep.Proxy()
	handles := map[string]dataservice.RenderHandle{
		"local://laptop":  &core.LocalHandle{Svc: laptop},
		"local://desktop": &core.LocalHandle{Svc: desktop},
	}
	for ap := range handles {
		if _, err := proxy.RegisterService(core.BusinessName, ap, ap, wsdl.RenderServicePortType); err != nil {
			log.Fatal(err)
		}
	}
	recruited, err := dist.Recruit(proxy, func(ap string) (dataservice.RenderHandle, error) {
		h, ok := handles[ap]
		if !ok {
			return nil, fmt.Errorf("unknown access point %s", ap)
		}
		return h, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("recruited via UDDI:", recruited)

	// 3. Dataset distribution + depth compositing.
	asg, err := dist.Distribute()
	if err != nil {
		log.Fatal(err)
	}
	for name, ids := range asg {
		fmt.Printf("  %s renders %d nodes\n", name, len(ids))
	}
	fb, _, err := dist.Render(context.Background(), dataservice.FrameRequest{W: 400, H: 300, Mode: dataservice.Subsets})
	if err != nil {
		log.Fatal(err)
	}
	out, err := os.Create("distribution.png")
	if err != nil {
		log.Fatal(err)
	}
	if err := png.Encode(out, fb.ToImage()); err != nil {
		log.Fatal(err)
	}
	out.Close()
	fmt.Println("wrote distribution.png (depth-composited from", len(asg), "services)")

	// 4. Framebuffer distribution: tiles proportional to speed.
	tiles, err := dist.PlanTiles(400, 300)
	if err != nil {
		log.Fatal(err)
	}
	for name, rect := range tiles {
		fmt.Printf("  tile for %s: %v (%d%% of pixels)\n", name, rect,
			100*rect.Dx()*rect.Dy()/(400*300))
	}

	// 5. Migration: a local user logs onto the desktop (which holds the
	// whole scene) and its rate collapses below the interactive threshold;
	// after the smoothing window the engine sheds nodes to the idle laptop.
	dist.ReportLoad(transport.LoadReport{Name: "desktop", FPS: 4})
	for i := 0; i < 3; i++ {
		dist.ReportLoad(transport.LoadReport{Name: "laptop", FPS: 60})
	}
	moves := dist.PlanMigration()
	for _, mv := range moves {
		fmt.Printf("  migrated node %d: %s -> %s\n", mv.NodeID, mv.From, mv.To)
	}
	if len(moves) == 0 {
		fmt.Println("  (no migration was necessary)")
	}
	after := dist.Assignment()
	for name, ids := range after {
		fmt.Printf("  %s now renders %d nodes\n", name, len(ids))
	}
}
