// Command ravebench regenerates every table and figure from the paper's
// evaluation section (§5). Timing tables come from the calibrated device
// and middleware models driven through the real implementation; figures
// are rendered by the real software rasterizer and written as PNGs.
//
// Usage:
//
//	ravebench                  # everything
//	ravebench -table 3         # one table (1-5)
//	ravebench -figure 2        # one figure (2-5); 2/3/5 write PNGs
//	ravebench -extra codec     # extension experiments: codec, migrate, marshal, volume, sync
//	ravebench -scale 0.05      # model-size scale for table 1 / figures
//	ravebench -out DIR         # where PNGs go (default .)
//
// ravebench is the one binary sanctioned to read the wall clock
// directly (each use carries a //lint:allow wallclock annotation): its
// entire job is measuring real elapsed time on real hardware, so
// injecting a virtual clock would defeat the measurement.
package main

import (
	"flag"
	"fmt"
	"image/png"
	"os"
	"path/filepath"
	"time"

	"repro/internal/marshal"
	"repro/internal/perfmodel"
	"repro/internal/raster"
	"repro/internal/rasterbench"
	"repro/internal/telemetry"
	"repro/internal/vclock"
)

func main() {
	table := flag.Int("table", 0, "regenerate one table (1-5); 0 = all")
	figure := flag.Int("figure", 0, "regenerate one figure (2-5); 0 = all")
	extra := flag.String("extra", "", "extension experiment: codec, migrate, marshal, volume, sync, raster")
	scale := flag.Float64("scale", 0.1, "model scale for generated geometry (1 = paper size)")
	out := flag.String("out", ".", "output directory for PNGs")
	frames := flag.Int("frames", 60, "frames per raster benchmark pass")
	workers := flag.Int("workers", 4, "band-parallel workers for the raster utilization pass")
	check := flag.Bool("check", false, "fail (exit 1) if the raster benchmark regresses against checked-in baselines")
	flag.Parse()

	all := *table == 0 && *figure == 0 && *extra == ""
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ravebench:", err)
		os.Exit(1)
	}

	if all || *table == 1 {
		rows, err := perfmodel.Table1(*scale)
		if err != nil {
			fail(err)
		}
		fmt.Println("Table 1: Models used in benchmarks (generated at scale", *scale, ")")
		fmt.Println(perfmodel.FormatTable1(rows))
	}
	if all || *table == 2 {
		fmt.Println("Table 2: Visualization timings using a PDA (modeled; paper values in parens)")
		fmt.Println(perfmodel.FormatTable2(perfmodel.Table2()))
	}
	if all || *table == 3 {
		fmt.Println("Table 3: Off-screen render timings, 400x400 (off-screen speed as % of on-screen)")
		fmt.Println(perfmodel.FormatTable3(perfmodel.Table3()))
	}
	if all || *table == 4 {
		fmt.Println("Table 4: Off-screen render timings, 4x 200x200, sequential vs interleaved")
		fmt.Println(perfmodel.FormatTable4(perfmodel.Table4()))
	}
	if all || *table == 5 {
		scan, full, err := perfmodel.CountUDDICalls()
		if err != nil {
			fail(err)
		}
		rows, err := perfmodel.Table5(scan, full)
		if err != nil {
			fail(err)
		}
		fmt.Println("Table 5: UDDI recruitment and service bootstrap (SOAP calls measured on the real proxy)")
		fmt.Println(perfmodel.FormatTable5(rows))
	}

	writePNG := func(name string, fb *raster.Framebuffer) {
		path := filepath.Join(*out, name)
		f, err := os.Create(path)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := png.Encode(f, fb.ToImage()); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s (%dx%d)\n", path, fb.W, fb.H)
	}

	if all || *figure == 2 {
		fmt.Println("Figure 2: PDA screenshots (200x200 renders of the two models)")
		start := time.Now() //lint:allow wallclock: benchmark measures real elapsed time
		hand, skel, err := perfmodel.Figure2(*scale)
		if err != nil {
			fail(err)
		}
		writePNG("figure2-hand.png", hand)
		writePNG("figure2-skeleton.png", skel)
		//lint:allow wallclock: benchmark measures real elapsed time
		fmt.Printf("rendered in %v\n\n", time.Since(start).Round(time.Millisecond))
	}
	if all || *figure == 3 {
		fmt.Println("Figure 3: two users visualising the same scene (remote avatar visible)")
		fb, err := perfmodel.Figure3(*scale)
		if err != nil {
			fail(err)
		}
		writePNG("figure3-collaboration.png", fb)
		fmt.Println()
	}
	if all || *figure == 4 {
		listing, err := perfmodel.Figure4()
		if err != nil {
			fail(err)
		}
		fmt.Println("Figure 4: UDDI registry browser")
		fmt.Println(listing)
	}
	if all || *figure == 5 {
		fb, rep, err := perfmodel.Figure5Tear()
		if err != nil {
			fail(err)
		}
		fmt.Println("Figure 5: tile tearing")
		fmt.Println(perfmodel.FormatFigure5(perfmodel.Figure5Lag(), rep))
		writePNG("figure5-tearing.png", fb)
		fmt.Println()
	}

	if all || *extra == "codec" {
		rows, err := perfmodel.CodecSweep()
		if err != nil {
			fail(err)
		}
		fmt.Println("Extra: adaptive compression sweep (11Mbit wireless, real measured frame sizes)")
		fmt.Println(perfmodel.FormatCodecSweep(rows))
	}
	if all || *extra == "migrate" {
		events, err := perfmodel.MigrationTrace()
		if err != nil {
			fail(err)
		}
		fmt.Println("Extra: workload migration trace (§3.2.7 scenario)")
		fmt.Println(perfmodel.FormatMigrationTrace(events))
	}
	if all || *extra == "volume" {
		res, err := perfmodel.VolumeDemo()
		if err != nil {
			fail(err)
		}
		fmt.Printf("Extra: volume distribution (§6) — %d slabs across %v, blended back-to-front\n",
			res.Slabs, res.Services)
		writePNG("volume-opaque.png", res.Opaque)
		writePNG("volume-translucent.png", res.Translucent)
		fmt.Println()
	}
	if all || *extra == "sync" {
		rows, err := perfmodel.SyncDemo()
		if err != nil {
			fail(err)
		}
		fmt.Println("Extra: tile synchronization (§5.5)")
		fmt.Println(perfmodel.FormatSyncDemo(rows))
	}
	if all || *extra == "raster" {
		// The raster benchmark writes BENCH_raster.json through the shared
		// versioned envelope; with -check, the fresh run is gated against
		// the checked-in baseline. The baseline is read from the current
		// directory (where the repo's copy lives), the artifact is written
		// to -out: a reduced CI run pointing -out at a scratch directory
		// still gates against the full-size baseline without overwriting
		// it, while a full run with the default -out=. regenerates it in
		// place. The read happens before the run so a failed write cannot
		// mask a regression.
		var rasterBase *rasterbench.RasterArtifact
		if f, err := os.Open("BENCH_raster.json"); err == nil { // no baseline yet: first run creates it
			var art rasterbench.RasterArtifact
			if err := telemetry.ReadBenchArtifact(f, &art, telemetry.BenchKindRaster); err == nil {
				rasterBase = &art
			}
			f.Close()
		}

		sc := rasterbench.DefaultScenario(*frames)
		sc.Workers = *workers
		cfg := rasterbench.Config{Scenario: sc, Clock: vclock.Real{}}
		fmt.Printf("Extra: rasterizer core benchmark — galleon %d tris, %dx%d, %d frames\n",
			sc.Triangles, sc.Width, sc.Height, sc.Frames)
		rasterArt, err := rasterbench.RunRaster(cfg)
		if err != nil {
			fail(err)
		}
		r := rasterArt.Results
		fmt.Printf("  fixed core:     p50 %v  p99 %v  (%.3g pixels/sec)\n",
			time.Duration(r.FixedFrame.P50ns), time.Duration(r.FixedFrame.P99ns), r.PixelsPerSec)
		fmt.Printf("  reference core: p50 %v  p99 %v\n",
			time.Duration(r.ReferenceFrame.P50ns), time.Duration(r.ReferenceFrame.P99ns))
		fmt.Printf("  fixed core, a Renderer per frame: p50 %v  p99 %v\n",
			time.Duration(r.FreshRendererFrame.P50ns), time.Duration(r.FreshRendererFrame.P99ns))
		fmt.Printf("  speedup %.2fx, band utilization %.2f (%d workers), parity %v\n",
			r.Speedup, r.BandUtilization, sc.Workers, r.ParityOK)

		path := filepath.Join(*out, "BENCH_raster.json")
		f, err := os.Create(path)
		if err != nil {
			fail(err)
		}
		werr := telemetry.WriteBenchArtifact(f, &rasterArt, telemetry.BenchKindRaster)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fail(werr)
		}
		fmt.Printf("wrote %s (v%d)\n", path, telemetry.BenchVersion)

		if *check {
			if violations := rasterbench.CheckRaster(rasterArt, rasterBase); len(violations) > 0 {
				for _, v := range violations {
					fmt.Fprintln(os.Stderr, "ravebench: raster regression:", v)
				}
				os.Exit(1)
			}
			fmt.Println("raster regression checks passed")
		}
		fmt.Println()
	}
	if all || *extra == "marshal" {
		fmt.Println("Extra: per-pixel vs direct frame marshalling (§5.1)")
		fb := raster.NewFramebuffer(200, 200)
		t0 := time.Now() //lint:allow wallclock: benchmark measures real elapsed time
		const reps = 20
		for i := 0; i < reps; i++ {
			marshal.EncodeFrameDirect(fb)
		}
		direct := time.Since(t0) / reps //lint:allow wallclock: benchmark measures real elapsed time
		t0 = time.Now()                 //lint:allow wallclock: benchmark measures real elapsed time
		for i := 0; i < reps; i++ {
			marshal.EncodeFramePerPixel(fb)
		}
		perPixel := time.Since(t0) / reps //lint:allow wallclock: benchmark measures real elapsed time
		ratio := float64(perPixel) / float64(direct)
		fmt.Printf("direct: %v/frame, per-pixel: %v/frame, slowdown %.0fx\n", direct, perPixel, ratio)
		fmt.Printf("(paper: >2min vs ~0.2s on the Zaurus, ~600x; the shape — orders of magnitude — holds)\n\n")
	}
}
