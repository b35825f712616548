package perfmodel

import (
	"fmt"

	"repro/internal/balance"
	"repro/internal/device"
	"repro/internal/geom/genmodel"
	"repro/internal/imgcodec"
	"repro/internal/mathx"
	"repro/internal/netsim"
	"repro/internal/raster"
	"repro/internal/scene"
)

// CodecRow is one row of the adaptive-compression sweep (X2): frame rate
// achievable over wireless at a given signal quality, per codec. The
// compression ratios are measured on a real rendered frame.
type CodecRow struct {
	Quality    float64
	Codec      string
	FrameBytes int
	FPS        float64
}

// CodecSweep renders a real galleon frame at 200x200, encodes it with
// each codec, and models the achievable frame rate on an 11 Mbit
// wireless link at several signal qualities — the paper's future-work
// adaptive compression (§5.1, §6).
func CodecSweep() ([]CodecRow, error) {
	mesh := genmodel.Galleon(genmodel.PaperGalleonTriangles)
	fb := raster.NewFramebuffer(200, 200)
	r := raster.New(fb)
	cam := raster.DefaultCamera().FitToBounds(mesh.Bounds(), mathx.V3(0.3, 0.2, 1))
	r.RenderMesh(mesh, mathx.Identity(), cam)

	// Second frame after a small camera move, for the delta codec.
	fb2 := raster.NewFramebuffer(200, 200)
	r2 := raster.New(fb2)
	r2.RenderMesh(mesh, mathx.Identity(), cam.Orbit(0.02, 0))

	type enc struct {
		name  string
		bytes int
	}
	raw, err := imgcodec.Encode(imgcodec.Raw, 200, 200, fb2.Color, nil)
	if err != nil {
		return nil, err
	}
	rle, err := imgcodec.Encode(imgcodec.RLE, 200, 200, fb2.Color, nil)
	if err != nil {
		return nil, err
	}
	delta, err := imgcodec.Encode(imgcodec.DeltaRLE, 200, 200, fb2.Color, fb.Color)
	if err != nil {
		return nil, err
	}
	flated, err := imgcodec.Encode(imgcodec.Flate, 200, 200, fb2.Color, nil)
	if err != nil {
		return nil, err
	}
	encs := []enc{
		{"raw", len(raw)},
		{"rle", len(rle)},
		{"delta-rle", len(delta)},
		{"flate", len(flated)},
	}

	var rows []CodecRow
	for _, q := range []float64{1.0, 0.7, 0.4, 0.2} {
		link := netsim.Wireless11(q)
		for _, e := range encs {
			t := link.TransferTime(e.bytes).Seconds() + ClientOverheadSeconds
			rows = append(rows, CodecRow{
				Quality:    q,
				Codec:      e.name,
				FrameBytes: e.bytes,
				FPS:        1 / t,
			})
		}
	}
	return rows, nil
}

// FormatCodecSweep renders the X2 table.
func FormatCodecSweep(rows []CodecRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%.0f%%", r.Quality*100),
			r.Codec,
			fmt.Sprintf("%d", r.FrameBytes),
			fmt.Sprintf("%.1f", r.FPS),
		})
	}
	return FormatTable([]string{"Signal", "Codec", "Frame bytes", "FPS"}, out)
}

// MigrationEvent is one step of the X3 workload-migration trace.
type MigrationEvent struct {
	Step    int
	Service string
	FPS     float64
	Nodes   int
	Note    string
}

// MigrationTrace runs the §3.2.7 scenario end to end with the real
// balancer: a laptop renders the whole scene, its frame rate collapses
// when a local user loads the machine, nodes migrate to an underloaded
// desktop, and the laptop recovers. Frame rates are modeled from the
// device profiles and assigned work.
func MigrationTrace() ([]MigrationEvent, error) {
	laptop := device.CentrinoLaptop
	desktop := device.XeonDesktop

	// The scene: 8 chunks of the Elle model.
	full := genmodel.Elle(genmodel.PaperElleTriangles)
	pieces := full.SplitSpatially(8)

	items := make([]balance.NodeItem, len(pieces))
	for i, p := range pieces {
		items[i] = balance.NodeItem{
			ID: 0, Cost: itemCost(p.TriangleCount()),
		}
		items[i].ID = nodeID(i)
	}

	fpsOf := func(dev device.Profile, work float64, slowdown float64) float64 {
		t := dev.OnScreenTime(device.Workload{Triangles: int(work), Pixels: 400 * 400}).Seconds()
		t *= slowdown
		if t <= 0 {
			return 1000
		}
		return 1 / t
	}

	th := balance.DefaultThresholds()
	th.UnderloadedFor = 2
	loads := []balance.ServiceLoad{
		{Capacity: balance.ServiceCapacity{Name: "desktop", WorkPerFrame: desktop.TriRate / 10, TextureBytes: desktop.TextureMemory}},
		{Capacity: balance.ServiceCapacity{Name: "laptop", WorkPerFrame: laptop.TriRate / 10, TextureBytes: laptop.TextureMemory}},
	}
	loadOf := map[string]*balance.ServiceLoad{"desktop": &loads[0], "laptop": &loads[1]}

	assigned := map[string][]balance.NodeItem{"laptop": items, "desktop": nil}
	workOf := func(name string) float64 {
		w := 0.0
		for _, it := range assigned[name] {
			w += it.Cost.Work()
		}
		return w
	}
	countOf := func(name string) int { return len(assigned[name]) }

	var events []MigrationEvent
	record := func(step int, note string, slowdownLaptop float64) {
		for _, name := range []string{"laptop", "desktop"} {
			dev := laptop
			slow := slowdownLaptop
			if name == "desktop" {
				dev = desktop
				slow = 1
			}
			fps := fpsOf(dev, workOf(name), slow)
			th.Observe(loadOf[name], fps)
			events = append(events, MigrationEvent{
				Step: step, Service: name, FPS: fps, Nodes: countOf(name), Note: note,
			})
		}
	}

	// Steps 1-2: healthy. Step 3: a local user logs onto the laptop and
	// its effective rate collapses (the paper's §6 stop-using-a-machine
	// scenario). Steps 4+: the migration policy reacts.
	record(1, "steady state", 1)
	record(2, "steady state", 1)
	record(3, "local user loads laptop", 20)
	record(4, "overload persists", 20)

	moves := th.PlanMigration(loads, assigned)
	for _, mv := range moves {
		for i, it := range assigned[mv.From] {
			if it.ID == mv.NodeID {
				assigned[mv.To] = append(assigned[mv.To], it)
				assigned[mv.From] = append(assigned[mv.From][:i], assigned[mv.From][i+1:]...)
				break
			}
		}
	}
	record(5, fmt.Sprintf("migrated %d nodes laptop->desktop", len(moves)), 20)
	if len(moves) == 0 {
		return events, fmt.Errorf("perfmodel: migration never triggered")
	}
	return events, nil
}

// itemCost builds a node cost for the migration trace.
func itemCost(tris int) scene.Cost {
	return scene.Cost{Triangles: tris, Bytes: int64(tris) * 50}
}

// nodeID numbers trace nodes starting after the scene root.
func nodeID(i int) scene.NodeID { return scene.NodeID(i + 2) }

// FormatMigrationTrace renders the X3 trace.
func FormatMigrationTrace(events []MigrationEvent) string {
	var out [][]string
	for _, e := range events {
		out = append(out, []string{
			fmt.Sprintf("%d", e.Step),
			e.Service,
			fmt.Sprintf("%.1f", e.FPS),
			fmt.Sprintf("%d", e.Nodes),
			e.Note,
		})
	}
	return FormatTable([]string{"Step", "Service", "FPS", "Nodes", "Event"}, out)
}
