// Command raverender runs a RAVE render service: it discovers (or is
// told) a data service, subscribes to a session, serves thin clients and
// peer render services on its own socket, and registers with UDDI.
//
//	raverender -name tower -device athlon -session skull \
//	           -registry http://host:8090            # discover the data service
//	raverender -data 127.0.0.1:9000 -session skull   # or dial it directly
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/renderservice"
	"repro/internal/retry"
	"repro/internal/telemetry"
	"repro/internal/vclock"
	"repro/internal/wsdl"
)

func main() {
	name := flag.String("name", "rave-render", "service name")
	dev := flag.String("device", "athlon", "device profile: centrino, athlon, v880z, xeon, onyx, pda")
	workers := flag.Int("workers", 4, "parallel rasterizer bands")
	addr := flag.String("addr", "127.0.0.1:9001", "listen address for clients/peers")
	session := flag.String("session", "default", "session to subscribe to")
	dataAddr := flag.String("data", "", "data service address (skips UDDI discovery)")
	registry := flag.String("registry", "", "UDDI registry URL (for discovery and registration)")
	linkBps := flag.Float64("linkbps", 94e6, "client link throughput estimate for the adaptive codec")
	reconnects := flag.Int("reconnects", 5, "reconnection attempts after the data connection fails (0 = forever)")
	idle := flag.Duration("idle-timeout", 30*time.Second, "declare the data connection dead after this silence (0 disables)")
	probe := flag.Duration("probe-interval", 5*time.Second, "version-probe cadence for dropped-update detection (0 disables)")
	report := flag.Duration("report-interval", 2*time.Second, "load-report cadence (0 disables)")
	queueDepth := flag.Int("queue-depth", renderservice.DefaultQueueDepth,
		"admission-control render queue depth: at most this many frames/tiles in flight before excess work is declined (background tile/subset work is capped at half)")
	telemetryEvery := flag.Duration("telemetry", 0,
		"log a telemetry snapshot at this interval (0 = off); on-demand dumps are always served over the control socket")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "raverender:", err)
		os.Exit(1)
	}

	profile, err := device.ByName(*dev)
	if err != nil {
		fail(err)
	}
	// The binary's clock is real time, but routed through vclock so the
	// code path matches what deterministic harnesses drive with a Virtual.
	clock := vclock.Real{}
	ctx := context.Background()
	metrics := telemetry.NewRegistry(clock)
	rs := renderservice.New(renderservice.Config{
		Name: *name, Device: profile, Workers: *workers, QueueDepth: *queueDepth,
		Clock: clock, Metrics: metrics, Tracer: telemetry.NewTracer(clock),
	})
	if *telemetryEvery > 0 {
		go core.LogTelemetry(ctx, clock, metrics, *telemetryEvery, os.Stderr)
	}

	// Locate the data service, afresh on every (re)connect: with -registry
	// that is a UDDI scan, so the subscription follows a promoted standby.
	source := cmp.Or(*dataAddr, *registry)
	if source == "" {
		fail(fmt.Errorf("need -data or -registry to find a data service"))
	}
	dial := core.ServiceDialer(*dataAddr, *registry, wsdl.DataServicePortType, func(ap string) {
		fmt.Printf("raverender: discovered data service at %s\n", ap)
	})

	policy := retry.DefaultPolicy()
	policy.MaxAttempts = *reconnects
	opts := renderservice.SubscribeOpts{
		Retry:          policy,
		IdleTimeout:    *idle,
		ProbeInterval:  *probe,
		ReportInterval: *report,
	}
	subErr := make(chan error, 1)
	ready := make(chan struct{})
	var first sync.Once // onReady fires after every re-bootstrap too
	go func() {
		subErr <- rs.SubscribeToDataResilient(ctx, dial, *session, opts,
			func(*renderservice.Session) { first.Do(func() { close(ready) }) })
	}()
	select {
	case <-ready:
		fmt.Printf("raverender: bootstrapped session %q from %s\n", *session, source)
	case err := <-subErr:
		fail(fmt.Errorf("subscription: %v", err))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("raverender: serving clients on tcp://%s (device %s)\n", ln.Addr(), profile.Name)

	if *registry != "" {
		if err := core.Register(*registry, *name, "tcp://"+ln.Addr().String(), wsdl.RenderServicePortType); err != nil {
			fail(err)
		}
		fmt.Printf("raverender: registered with %s\n", *registry)
	}

	go func() {
		if err := <-subErr; err != nil {
			fail(fmt.Errorf("data service connection lost: %v", err))
		}
		fmt.Println("raverender: data service closed the session")
		os.Exit(0)
	}()

	fail(core.Serve(ln, func(c net.Conn) error { return rs.ServeClient(c, *linkBps) },
		func(err error) { fmt.Fprintln(os.Stderr, "raverender: client:", err) }))
}
