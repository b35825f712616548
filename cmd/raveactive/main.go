// Command raveactive is the active render client (§3.1.2): "a
// stand-alone copy of the render service that can only render to the
// screen", for users who cannot install a Grid/Web service container. It
// subscribes to a data service session, keeps a local replica, and
// renders frames locally to PNG — no UDDI registration, no serving.
//
//	raveactive -data 127.0.0.1:9000 -session skull -out view.png
//	raveactive -registry http://host:8090 -session skull -frames 10
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/vclock"
	"repro/internal/wsdl"
)

// clock is the binary's single time source; frame timing and watchdogs
// run on vclock.Real per the wallclock contract, keeping the code path
// identical to what the deterministic harnesses drive with a Virtual.
var clock vclock.Clock = vclock.Real{}

func main() {
	user := flag.String("user", "active-user", "user name (your avatar identity)")
	dataAddr := flag.String("data", "", "data service address (skips UDDI discovery)")
	registry := flag.String("registry", "", "UDDI registry URL for discovery")
	session := flag.String("session", "default", "session to join")
	dev := flag.String("device", "athlon", "local device profile: centrino, athlon, v880z, xeon, onyx, pda")
	workers := flag.Int("workers", 4, "parallel rasterizer bands")
	frames := flag.Int("frames", 1, "frames to render locally")
	width := flag.Int("width", 640, "frame width")
	height := flag.Int("height", 480, "frame height")
	out := flag.String("out", "raveactive.png", "PNG path for the final frame")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "raveactive:", err)
		os.Exit(1)
	}

	profile, err := device.ByName(*dev)
	if err != nil {
		fail(err)
	}

	if *dataAddr == "" && *registry == "" {
		fail(fmt.Errorf("need -data or -registry"))
	}
	conn, err := core.ServiceDialer(*dataAddr, *registry, wsdl.DataServicePortType, func(ap string) {
		fmt.Printf("raveactive: discovered data service at %s\n", ap)
	})()
	if err != nil {
		fail(err)
	}
	defer conn.Close()

	active := client.NewActive(*user, profile, *workers)
	ready := make(chan struct{})
	errc := make(chan error, 1)
	go func() { errc <- active.Subscribe(conn, *session, func() { close(ready) }) }()
	select {
	case <-ready:
		fmt.Printf("raveactive: joined session %q (device %s)\n", *session, profile.Name)
	case err := <-errc:
		fail(fmt.Errorf("subscription: %v", err))
	case <-clock.After(60 * time.Second):
		fail(fmt.Errorf("bootstrap timed out"))
	}

	start := clock.Now()
	for i := 0; i < *frames; i++ {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		if err := active.RenderPNG(f, *width, *height); err != nil {
			f.Close()
			fail(err)
		}
		f.Close()
	}
	elapsed := clock.Now().Sub(start)
	fmt.Printf("raveactive: rendered %d frame(s) of %dx%d locally in %v; wrote %s\n",
		*frames, *width, *height, elapsed.Round(time.Millisecond), *out)
}
