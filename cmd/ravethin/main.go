// Command ravethin is the thin client (the paper's Zaurus PDA role): it
// connects to a render service — directly or via UDDI discovery — orbits
// the camera while requesting frames, reports the achieved frame rate,
// and writes the final frame as a PNG.
//
// A bare EOF on the frame stream is NOT a clean shutdown: it means the
// render service died or the link dropped, so the client reconnects
// with backoff (re-discovering through UDDI when -registry is given)
// and resumes requesting frames — the same ErrConnectionLost treatment
// raverender applies to its data subscription.
//
//	ravethin -render 127.0.0.1:9001 -session skull -frames 10 -out view.png
//	ravethin -registry http://host:8090 -session skull
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/raster"
	"repro/internal/retry"
	"repro/internal/vclock"
	"repro/internal/wsdl"
)

// clock is the binary's single time source; the frame-rate measurement
// and the reconnect backoff run on vclock.Real per the wallclock
// contract.
var clock vclock.Clock = vclock.Real{}

func main() {
	renderAddr := flag.String("render", "", "render service address (skips UDDI discovery)")
	registry := flag.String("registry", "", "UDDI registry URL for discovery")
	session := flag.String("session", "default", "session to view")
	user := flag.String("user", "zaurus", "client name")
	frames := flag.Int("frames", 5, "frames to request")
	width := flag.Int("width", 200, "frame width (the Zaurus used 200)")
	height := flag.Int("height", 200, "frame height")
	codec := flag.String("codec", "adaptive", "frame codec: raw, rle, delta-rle, adaptive")
	out := flag.String("out", "ravethin.png", "PNG path for the final frame")
	orbit := flag.Bool("orbit", false, "orbit the camera between frames (otherwise keep the session's fitted view)")
	maxAttempts := flag.Int("max-reconnects", 6, "reconnect attempts before giving up (0 = retry forever)")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ravethin:", err)
		os.Exit(1)
	}

	// dial resolves a render service fresh on every attempt: a fixed
	// address redials it; a registry re-queries UDDI, so a reconnect
	// after a crash finds whichever render service is registered now.
	if *renderAddr == "" && *registry == "" {
		fail(fmt.Errorf("need -render or -registry"))
	}
	dial := core.ServiceDialer(*renderAddr, *registry, wsdl.RenderServicePortType, func(ap string) {
		fmt.Printf("ravethin: discovered render service at %s\n", ap)
	})

	policy := retry.DefaultPolicy()
	policy.MaxAttempts = *maxAttempts

	ctx := context.Background()
	thin, err := client.DialThinResilient(ctx, dial, *user, *session, policy, clock)
	if err != nil {
		fail(err)
	}
	defer thin.Close()

	rep, err := thin.Capacity(ctx)
	if err != nil {
		fail(err)
	}
	fmt.Printf("ravethin: render service %s: %.1fM polys/sec, %dMB texture memory\n",
		rep.Name, rep.PolysPerSecond/1e6, rep.TextureMemory>>20)

	cam := raster.DefaultCamera()
	var last *raster.Framebuffer
	start := clock.Now()
	for i := 0; i < *frames; i++ {
		if *orbit {
			cam = cam.Orbit(0.15, 0.02)
			if err := thin.SetCamera(ctx, cam); err != nil {
				fail(err)
			}
		}
		fb, err := thin.RequestFrame(ctx, *width, *height, *codec)
		if err != nil {
			fail(err)
		}
		last = fb
	}
	elapsed := clock.Now().Sub(start)
	fmt.Printf("ravethin: %d frames of %dx%d in %v (%.1f fps, codec %s)\n",
		*frames, *width, *height, elapsed.Round(time.Millisecond),
		float64(*frames)/elapsed.Seconds(), *codec)

	if last != nil && *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := client.WritePNG(f, last); err != nil {
			fail(err)
		}
		fmt.Printf("ravethin: wrote %s\n", *out)
	}
}
