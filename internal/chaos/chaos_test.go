// Package chaos holds the deterministic fault-injection suite for the
// RAVE service fabric: render services are killed mid-frame, scene-op
// streams are degraded, and the UDDI registry is taken down during
// recruitment — all on the virtual clock, so every run replays the same
// schedule and no assertion depends on wall-clock pacing.
package chaos

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/compositor"
	"repro/internal/core"
	"repro/internal/dataservice"
	"repro/internal/device"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/netsim"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/retry"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/uddi"
	"repro/internal/vclock"
	"repro/internal/wsdl"
)

// instant is a link with no modeled delay: deliveries fire at the
// current virtual instant, so tests only advance the clock to drive
// timers (retry backoff, probes, idle watchdogs), never for transit.
func instant() netsim.Link {
	return netsim.Link{BandwidthBps: 1e15, Efficiency: 1, Latency: 0, Quality: 1}
}

// advance drives the virtual clock from a background goroutine until the
// returned stop function is called. Fault decisions are pure functions
// of (seed, write index), never of the advancement pace, so this only
// provides liveness for clock-waiting code paths.
func advance(clk *vclock.Virtual) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				clk.Advance(5 * time.Millisecond)
				runtime.Gosched()
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// distSession builds a data-service session whose mesh is split into n
// distributable nodes, camera fitted.
func distSession(t *testing.T, svc *dataservice.Service, tris, n int) *dataservice.Session {
	t.Helper()
	sess, err := svc.CreateSession("dist")
	if err != nil {
		t.Fatal(err)
	}
	full := genmodel.Elle(tris)
	for i, p := range full.SplitSpatially(n) {
		if _, err := sess.AddMesh("piece", p, mathx.Identity()); err != nil {
			t.Fatalf("piece %d: %v", i, err)
		}
	}
	cam := raster.DefaultCamera().FitToBounds(full.Bounds(), mathx.V3(0.3, 0.2, 1))
	if err := sess.SetCamera(renderservice.StateFromCamera(cam), ""); err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestKillMidFrameReassignsWork is the headline chaos scenario: a socket
// render service holding the whole dataset is killed in the middle of
// writing its MsgFrameDepth reply. The distributor must detect the
// failure, orphan the victim's nodes, reassign them to the surviving
// in-process services, and still produce a frame that matches a
// whole-scene reference render.
func TestKillMidFrameReassignsWork(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	stop := advance(clk)
	defer stop()
	svc := dataservice.New(dataservice.Config{Name: "data", Clock: clk})
	sess := distSession(t, svc, 12000, 6)
	d := sess.NewDistributor(balance.DefaultThresholds())
	sess.AttachDistributor(d)

	// Two modest survivors in-process, one fast victim over a simulated
	// socket. Greedy most-spare packing sends every node to the Onyx.
	athlon := renderservice.New(renderservice.Config{Name: "athlon", Device: device.AthlonDesktop, Workers: 2, Clock: clk})
	xeon := renderservice.New(renderservice.Config{Name: "xeon", Device: device.XeonDesktop, Workers: 2, Clock: clk})
	if err := d.AddService(&core.LocalHandle{Svc: athlon}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddService(&core.LocalHandle{Svc: xeon}); err != nil {
		t.Fatal(err)
	}

	victim := renderservice.New(renderservice.Config{Name: "victim", Device: device.SGIOnyx, Workers: 2, Clock: clk})
	dataEnd, renderEnd := netsim.SimPipe(clk, instant(), instant())
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		victim.ServeClient(renderEnd, 94e6)
	}()
	vh, err := core.DialSocketHandle(dataEnd, "victim", "dist")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddService(vh); err != nil {
		t.Fatal(err)
	}

	asg, err := d.Distribute()
	if err != nil {
		t.Fatal(err)
	}
	if len(asg["victim"]) != 6 {
		t.Fatalf("precondition: victim should hold all 6 nodes, got %v", asg)
	}

	// Kill the victim's side of the socket 100 bytes into its next write.
	// Byte accounting starts at injection, and the victim's next write is
	// the MsgFrameDepth reply (far larger than 100 bytes), so the kill
	// lands mid-message, mid-frame.
	renderEnd.InjectFaults(netsim.NewFaults(11).KillAtByte(100))

	fb, rep, err := d.RenderDistributedResilient(context.Background(), 96, 96)
	if err != nil {
		t.Fatalf("resilient render: %v (report %+v)", err, rep)
	}
	if fb == nil {
		t.Fatal("no frame despite successful recovery")
	}
	if rep.Rounds != 2 {
		t.Errorf("recovery rounds: %d, want 2 (one failure, one clean re-render)", rep.Rounds)
	}
	if len(rep.Failed) != 1 || rep.Failed[0] != "victim" {
		t.Errorf("failed services: %v, want [victim]", rep.Failed)
	}
	if rep.Reassigned != 6 {
		t.Errorf("reassigned %d nodes, want all 6 orphans", rep.Reassigned)
	}
	if rep.Overcommitted {
		t.Error("survivors had ample capacity; overcommit flag must stay clear")
	}
	for _, name := range d.ServiceNames() {
		if name == "victim" {
			t.Fatal("failed service still attached after recovery")
		}
	}

	// The recovered frame matches a whole-scene reference render.
	whole, _, err := athlon.RenderSceneOnce(sess.Snapshot(), renderservice.CameraFromState(sess.Camera()), 96, 96)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range whole.Color {
		if whole.Color[i] != fb.Color[i] {
			diff++
		}
	}
	if frac := float64(diff) / float64(len(whole.Color)); frac > 0.01 {
		t.Errorf("recovered frame differs from reference on %.2f%% of bytes", frac*100)
	}

	// Steady state: the next frame needs no recovery at all.
	_, rep2, err := d.RenderDistributedResilient(context.Background(), 96, 96)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Rounds != 1 || len(rep2.Failed) != 0 {
		t.Errorf("post-recovery frame not clean: %+v", rep2)
	}

	select {
	case <-serveDone:
	case <-time.After(10 * time.Second):
		t.Fatal("victim serve loop never exited after kill")
	}
}

// unstableHandle wraps a render handle with a kill switch, modeling a
// service that crashes between frames.
type unstableHandle struct {
	inner dataservice.RenderHandle
	dead  atomic.Bool
}

var errCrashed = errors.New("render service crashed")

func (h *unstableHandle) Name() string { return h.inner.Name() }

func (h *unstableHandle) Capacity() (transport.CapacityReport, error) {
	if h.dead.Load() {
		return transport.CapacityReport{}, errCrashed
	}
	return h.inner.Capacity()
}

func (h *unstableHandle) Render(job dataservice.RenderJob) (compositor.Tile, error) {
	if h.dead.Load() {
		return compositor.Tile{}, errCrashed
	}
	return h.inner.Render(job)
}

// flakyTransport fails the first `outage` HTTP requests, modeling a UDDI
// registry that is unreachable when recruitment first needs it.
type flakyTransport struct {
	inner  http.RoundTripper
	outage int32
	calls  int32
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	n := atomic.AddInt32(&f.calls, 1)
	if n <= atomic.LoadInt32(&f.outage) {
		return nil, errors.New("uddi registry unreachable (simulated outage)")
	}
	return f.inner.RoundTrip(req)
}

// TestRecruitmentDuringRegistryOutage: the only fast render service
// crashes, the sole survivor (a PDA) cannot hold the dataset, and the
// UDDI registry is down for the first recruitment attempts. The retry
// policy must ride out the outage, recruit the advertised replacement,
// and recover without overcommitting the PDA.
func TestRecruitmentDuringRegistryOutage(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	stop := advance(clk)
	defer stop()

	svc := dataservice.New(dataservice.Config{Name: "data", Clock: clk})
	sess := distSession(t, svc, 30000, 4)
	d := sess.NewDistributor(balance.DefaultThresholds())
	sess.AttachDistributor(d)

	onyx1 := renderservice.New(renderservice.Config{Name: "onyx1", Device: device.SGIOnyx, Workers: 2, Clock: clk})
	victim := &unstableHandle{inner: &core.LocalHandle{Svc: onyx1}}
	pda := renderservice.New(renderservice.Config{Name: "pda", Device: device.ZaurusPDA, Workers: 1, Clock: clk})
	if err := d.AddService(victim); err != nil {
		t.Fatal(err)
	}
	if err := d.AddService(&core.LocalHandle{Svc: pda}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Distribute(); err != nil {
		t.Fatal(err)
	}

	// Real registry over HTTP; a healthy proxy registers the replacement,
	// while the distributor's recruitment proxy sees the outage.
	reg := uddi.NewRegistry()
	ts := httptest.NewServer(uddi.NewServer(reg))
	defer ts.Close()
	if err := core.Register(ts.URL, "onyx2", "local://onyx2", wsdl.RenderServicePortType); err != nil {
		t.Fatal(err)
	}
	flaky := &flakyTransport{inner: http.DefaultTransport, outage: 3}
	proxy := uddi.ConnectHTTP(ts.URL, &http.Client{Transport: flaky})

	onyx2 := renderservice.New(renderservice.Config{Name: "onyx2", Device: device.SGIOnyx, Workers: 2, Clock: clk})
	d.SetRecruiter(proxy, func(ap string) (dataservice.RenderHandle, error) {
		if ap != "local://onyx2" {
			return nil, errors.New("unknown access point")
		}
		return &core.LocalHandle{Svc: onyx2}, nil
	}, retry.Policy{MaxAttempts: 6, BaseDelay: 5 * time.Millisecond, Multiplier: 2, Jitter: 0.2})

	victim.dead.Store(true)

	fb, rep, err := d.RenderDistributedResilient(context.Background(), 64, 64)
	if err != nil {
		t.Fatalf("resilient render: %v (report %+v)", err, rep)
	}
	if fb == nil {
		t.Fatal("no frame after recruitment recovery")
	}
	if len(rep.Recruited) != 1 || rep.Recruited[0] != "onyx2" {
		t.Errorf("recruited: %v, want [onyx2]", rep.Recruited)
	}
	if rep.Overcommitted {
		t.Error("recruitment succeeded; the PDA must not be overcommitted")
	}
	if len(rep.Failed) != 1 || rep.Failed[0] != "onyx1" {
		t.Errorf("failed services: %v, want [onyx1]", rep.Failed)
	}
	if got := atomic.LoadInt32(&flaky.calls); got <= flaky.outage {
		t.Errorf("registry saw %d requests; recruitment never outlived the %d-request outage", got, flaky.outage)
	}
	// The replacement is attached and will serve the next frames.
	attached := false
	for _, name := range d.ServiceNames() {
		if name == "onyx2" {
			attached = true
		}
	}
	if !attached {
		t.Errorf("recruited service not attached: %v", d.ServiceNames())
	}
}

// TestDroppedOpsConvergeViaResync degrades the data→render op stream
// with a 20% whole-message drop rate. The versioned op stream must
// detect gaps (or the version probe must catch trailing-edge drops) and
// resynchronize the replica from snapshots until it converges on the
// authoritative version.
func TestDroppedOpsConvergeViaResync(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	stop := advance(clk)
	defer stop()

	svc := dataservice.New(dataservice.Config{Name: "data", Clock: clk})
	sess, err := svc.CreateSessionFromMesh("skull", "skull", genmodel.Galleon(1200))
	if err != nil {
		t.Fatal(err)
	}

	rs := renderservice.New(renderservice.Config{Name: "rs", Device: device.AthlonDesktop, Workers: 2, Clock: clk})
	ready := make(chan *renderservice.Session, 1)
	faults := netsim.NewFaults(21).DropFraction(0.2)
	// Every dial is a fresh pipe with its own ServeConn, so a redial
	// after a lost stream is a recovery path; once the degradation has
	// begun, new pipes carry the same fault plan as the one they replace.
	var (
		mu           sync.Mutex
		dsEnd, rsEnd *netsim.SimConn
		degraded     bool
	)
	dial := func() (io.ReadWriteCloser, error) {
		dataSide, renderSide := netsim.SimPipe(clk, instant(), instant())
		mu.Lock()
		dsEnd, rsEnd = dataSide, renderSide
		if degraded {
			dataSide.InjectFaults(faults)
		}
		mu.Unlock()
		go svc.ServeConn(dataSide)
		return renderSide, nil
	}
	errc := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		errc <- rs.SubscribeToDataResilient(ctx, dial, "skull", renderservice.SubscribeOpts{ProbeInterval: 50 * time.Millisecond}, func(s *renderservice.Session) {
			select {
			case ready <- s:
			default:
			}
		})
	}()

	var replica *renderservice.Session
	select {
	case replica = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("bootstrap timed out")
	}
	// Degrade the stream only after bootstrap, so every drop hits the
	// live op fan-out, resync snapshots, or version reports.
	mu.Lock()
	degraded = true
	dsEnd.InjectFaults(faults)
	mu.Unlock()

	for i := 0; i < 30; i++ {
		op := &scene.AddNodeOp{Parent: scene.RootID, ID: sess.AllocID(), Name: "n", Transform: mathx.Identity()}
		// Fan-out send errors are the session's subscriber-health signal,
		// not a failure here: drops are silent, and the stream recovers.
		_ = sess.ApplyUpdate(op, "")
	}

	deadline := time.After(30 * time.Second)
	for replica.Version() < sess.Version() {
		select {
		case err := <-errc:
			t.Fatalf("subscriber gave up at v%d, authority at v%d (dropped %d writes): %v",
				replica.Version(), sess.Version(), faults.Dropped(), err)
		case <-deadline:
			t.Fatalf("replica stuck at v%d, authority at v%d (dropped %d writes)",
				replica.Version(), sess.Version(), faults.Dropped())
		case <-time.After(time.Millisecond):
		}
	}
	if faults.Dropped() == 0 {
		t.Fatal("fault plan dropped nothing; the resync path was never exercised")
	}
	// The converged replica renders the authoritative scene version.
	frame, err := replica.RenderFrame(32, 32, "")
	if err != nil {
		t.Fatal(err)
	}
	if frame.Version != sess.Version() {
		t.Errorf("rendered v%d, authority v%d", frame.Version, sess.Version())
	}

	cancel()
	mu.Lock()
	rsEnd.Close()
	mu.Unlock()
	select {
	case <-errc:
	case <-time.After(10 * time.Second):
		t.Fatal("subscriber never exited after close")
	}
}

// TestStalledSubscriptionReconnects: the data service's first connection
// stalls before the bootstrap snapshot ever arrives. The idle watchdog
// must declare it dead, and the resilient subscriber must redial and
// bootstrap cleanly on the second connection.
func TestStalledSubscriptionReconnects(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	stop := advance(clk)
	defer stop()

	svc := dataservice.New(dataservice.Config{Name: "data", Clock: clk})
	sess, err := svc.CreateSessionFromMesh("skull", "skull", genmodel.Galleon(800))
	if err != nil {
		t.Fatal(err)
	}

	rs := renderservice.New(renderservice.Config{Name: "rs", Device: device.CentrinoLaptop, Workers: 2, Clock: clk})
	var dials int32
	dial := func() (io.ReadWriteCloser, error) {
		n := atomic.AddInt32(&dials, 1)
		dsEnd, rsEnd := netsim.SimPipe(clk, instant(), instant())
		if n == 1 {
			// The first connection's data side stalls all its writes for
			// an hour of virtual time: the subscriber sees a dead socket.
			dsEnd.InjectFaults(netsim.NewFaults(31).StallUntil(clk.Now().Add(time.Hour)))
		}
		go svc.ServeConn(dsEnd)
		return rsEnd, nil
	}

	ready := make(chan *renderservice.Session, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		errc <- rs.SubscribeToDataResilient(ctx, dial, "skull", renderservice.SubscribeOpts{
			Retry:         retry.Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, Multiplier: 2},
			IdleTimeout:   300 * time.Millisecond,
			ProbeInterval: 50 * time.Millisecond,
		}, func(s *renderservice.Session) { ready <- s })
	}()

	var replica *renderservice.Session
	select {
	case replica = <-ready:
	case <-time.After(15 * time.Second):
		t.Fatalf("never bootstrapped past the stalled connection (dials: %d)", atomic.LoadInt32(&dials))
	}
	if got := atomic.LoadInt32(&dials); got != 2 {
		t.Errorf("dial count: %d, want 2 (stalled then clean)", got)
	}

	// The re-established subscription carries live updates.
	id := sess.AllocID()
	if err := sess.ApplyUpdate(&scene.AddNodeOp{Parent: scene.RootID, ID: id, Name: "late", Transform: mathx.Identity()}, ""); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for replica.Version() < sess.Version() {
		if time.Now().After(deadline) {
			t.Fatalf("replica at v%d, authority at v%d after reconnect", replica.Version(), sess.Version())
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	select {
	case <-errc:
	case <-time.After(15 * time.Second):
		t.Fatal("subscriber never exited after cancel")
	}
}
