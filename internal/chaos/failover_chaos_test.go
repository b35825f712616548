// Data-service high-availability chaos: the primary is SIGKILLed under
// a netsim fault plan (every conn dies mid-write on the next fan-out),
// and the fabric must fail over — the standby promotes within the lease
// window on the virtual clock, render services re-discover the new
// primary through UDDI and resume at their last applied op version, and
// thin clients ride through without a single stale-session error.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/dataservice"
	"repro/internal/dataservice/failover"
	"repro/internal/dataservice/wal"
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

// pacedAdvance drives the virtual clock like advance, but throttled
// against real time (5ms virtual per 0.5ms real). The failover monitor
// talks to UDDI over real HTTP, so an unthrottled driver would let
// hours of virtual time gallop past during one SOAP round trip and
// wreck the time-to-promote measurement.
func pacedAdvance(clk *vclock.Virtual) (stop func()) {
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
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// waitFor spins (wall-clock bounded) until cond holds. The condition
// must be monotonic: once true it stays true.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestPrimaryDeathFailsOverToStandby is the headline failover scenario.
// Timeline (all virtual time; the clock is frozen at t=0 through setup
// and the kill, so the schedule is exact):
//
//  1. primary data service registers in UDDI and acquires the session
//     lease; a hot standby replicates over the op stream; a render
//     service subscribes via UDDI discovery; a thin client draws.
//  2. the primary dies mid-fan-out: a KillAtByte fault plan lands on
//     every primary conn, and the keeper stops renewing.
//  3. the clock starts moving: the lease lapses, the standby's monitor
//     claims it at the next epoch and re-registers, the render service
//     re-discovers the promoted standby and resumes gap-only, and the
//     thin client keeps getting frames throughout.
func TestPrimaryDeathFailsOverToStandby(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	const leaseName = "data:skull"
	const renew = 100 * time.Millisecond
	const poll = 50 * time.Millisecond
	const ttl = failover.DefaultMissedRenewals * renew

	reg := uddi.NewRegistry()
	ts := httptest.NewServer(uddi.NewServer(reg))
	defer ts.Close()
	proxy := uddi.Connect(ts.URL)
	if err := core.Register(ts.URL, "data-a", "sim://data-a", wsdl.DataServicePortType); err != nil {
		t.Fatal(err)
	}

	svcA := dataservice.New(dataservice.Config{Name: "data-a", Clock: clk})
	sessA, err := svcA.CreateSessionFromMesh("skull", "skull", genmodel.Galleon(1200))
	if err != nil {
		t.Fatal(err)
	}
	cam := raster.DefaultCamera().FitToBounds(sessA.Snapshot().Bounds(), mathx.V3(0.3, 0.2, 1))
	if err := sessA.SetCamera(renderservice.StateFromCamera(cam), ""); err != nil {
		t.Fatal(err)
	}

	// Every conn the primary process holds, so the SIGKILL can take them
	// all down at once.
	var connMu sync.Mutex
	primaryDead := false
	var primaryConns []*netsim.SimConn
	var lastDial io.ReadWriteCloser

	keeper := &failover.Keeper{Leases: proxy, Clock: clk, Service: leaseName, Holder: "data-a", Renew: renew}
	if _, err := keeper.Acquire(); err != nil {
		t.Fatal(err)
	}
	keeperCtx, keeperCancel := context.WithCancel(context.Background())
	keeperErr := make(chan error, 1)
	go func() { keeperErr <- keeper.Run(keeperCtx) }()

	svcB := dataservice.New(dataservice.Config{Name: "data-b", Clock: clk})
	st := &failover.Standby{Service: svcB, SessionName: "skull", Name: "data-b", Clock: clk}
	repA, repB := netsim.SimPipe(clk, instant(), instant())
	connMu.Lock()
	primaryConns = append(primaryConns, repA)
	connMu.Unlock()
	go svcA.ServeConn(repA)
	stCtx, stCancel := context.WithCancel(context.Background())
	defer stCancel()
	stErr := make(chan error, 1)
	go func() { stErr <- st.Run(stCtx, repB) }()
	waitFor(t, "standby bootstrap", func() bool {
		return st.Session() != nil && st.Applied() == sessA.Version()
	})

	mon := &failover.Monitor{
		Leases: proxy, Clock: clk, Service: leaseName, Holder: "data-b", Poll: poll, Standby: st,
		Reregister: func() error {
			return core.Register(ts.URL, "data-b", "sim://data-b", wsdl.DataServicePortType)
		},
	}
	monCtx, monCancel := context.WithCancel(context.Background())
	defer monCancel()
	type promoResult struct {
		p   *failover.Promotion
		err error
	}
	promoCh := make(chan promoResult, 1)
	go func() {
		p, err := mon.Run(monCtx)
		promoCh <- promoResult{p, err}
	}()

	// The render service finds its data service by scanning UDDI on
	// every dial — that is what lets it follow a failover.
	connect := func(ap string) (io.ReadWriteCloser, error) {
		connMu.Lock()
		defer connMu.Unlock()
		switch ap {
		case "sim://data-a":
			if primaryDead {
				return nil, errors.New("sim://data-a: connection refused")
			}
			serveEnd, dialEnd := netsim.SimPipe(clk, instant(), instant())
			primaryConns = append(primaryConns, serveEnd)
			go svcA.ServeConn(serveEnd)
			lastDial = dialEnd
			return dialEnd, nil
		case "sim://data-b":
			serveEnd, dialEnd := netsim.SimPipe(clk, instant(), instant())
			go svcB.ServeConn(serveEnd)
			lastDial = dialEnd
			return dialEnd, nil
		default:
			return nil, fmt.Errorf("unknown access point %q", ap)
		}
	}
	rs := renderservice.New(renderservice.Config{Name: "rs", Device: device.AthlonDesktop, Workers: 2, Clock: clk})
	subCtx, subCancel := context.WithCancel(context.Background())
	defer subCancel()
	ready := make(chan *renderservice.Session, 4)
	subErr := make(chan error, 1)
	go func() {
		subErr <- rs.SubscribeToDataResilient(subCtx, core.DiscoverDialer(proxy, wsdl.DataServicePortType, connect), "skull",
			renderservice.SubscribeOpts{Retry: retry.Policy{MaxAttempts: 200, BaseDelay: 5 * time.Millisecond, Multiplier: 1.5}},
			func(s *renderservice.Session) {
				select {
				case ready <- s:
				default:
				}
			})
	}()
	var replica *renderservice.Session
	select {
	case replica = <-ready:
	case <-time.After(15 * time.Second):
		t.Fatal("render service never bootstrapped")
	}

	for i := 0; i < 3; i++ {
		op := &scene.AddNodeOp{Parent: scene.RootID, ID: sessA.AllocID(), Name: "n", Transform: mathx.Identity()}
		if err := sessA.ApplyUpdate(op, ""); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "standby caught up", func() bool { return st.Applied() == sessA.Version() })
	waitFor(t, "render replica caught up", func() bool { return replica.Version() == sessA.Version() })

	thinDial := func() (io.ReadWriteCloser, error) {
		cEnd, sEnd := netsim.SimPipe(clk, instant(), instant())
		go rs.ServeClient(sEnd, 5e6)
		return cEnd, nil
	}
	thinPolicy := retry.DefaultPolicy()
	thinPolicy.BaseDelay = time.Millisecond
	thin, err := client.DialThinResilient(context.Background(), thinDial, "zaurus", "skull", thinPolicy, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer thin.Close()
	thinFrames := 0
	frame := func(stage string) {
		t.Helper()
		if _, err := thin.RequestFrame(context.Background(), 48, 48, "raw"); err != nil {
			t.Errorf("thin client frame %s: %v", stage, err)
		}
		thinFrames++
	}
	frame("before the kill")

	// SIGKILL, expressed as a netsim fault plan: every conn the primary
	// holds dies mid-write on its next fan-out, and the keeper stops
	// heartbeating. The op that triggers the fan-out was applied on the
	// primary only — no follower ever saw it, so the failover timeline
	// simply never includes it.
	preKill := sessA.Version()
	connMu.Lock()
	primaryDead = true
	for i, c := range primaryConns {
		c.InjectFaults(netsim.NewFaults(uint64(40 + i)).KillAtByte(16))
	}
	connMu.Unlock()
	killedAt := clk.Now()
	keeperCancel()
	if err := <-keeperErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("keeper exit: %v", err)
	}
	doomed := &scene.AddNodeOp{Parent: scene.RootID, ID: sessA.AllocID(), Name: "doomed", Transform: mathx.Identity()}
	if err := sessA.ApplyUpdate(doomed, ""); err == nil {
		t.Fatal("fan-out of the doomed op survived the kill plan")
	}
	select {
	case err := <-stErr:
		if !errors.Is(err, failover.ErrReplicationLost) {
			t.Fatalf("standby exit: %v, want ErrReplicationLost", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("standby never noticed the dead stream")
	}

	// The render session survives the data outage: the retained replica
	// keeps serving thin clients at the last replicated version.
	frame("during the outage")

	stop := pacedAdvance(clk)
	defer stop()

	var promo *failover.Promotion
	select {
	case r := <-promoCh:
		if r.err != nil {
			t.Fatalf("monitor: %v", r.err)
		}
		promo = r.p
	case <-time.After(30 * time.Second):
		t.Fatal("standby never promoted")
	}
	if promo.Lease.Holder != "data-b" || promo.Lease.Epoch != 2 {
		t.Errorf("promotion lease %+v, want holder data-b at epoch 2", promo.Lease)
	}
	if promo.Version != preKill {
		t.Errorf("promoted at v%d, want the last replicated v%d", promo.Version, preKill)
	}
	ttp := promo.At.Sub(killedAt)
	if ttp <= 0 || ttp > ttl+3*poll {
		t.Errorf("promotion took %v of virtual time, want within the lease window (%v ttl + polling slack)", ttp, ttl)
	}
	t.Logf("time-to-promote: %v virtual (renew %v, ttl %v, poll %v)", ttp, renew, ttl, poll)

	// Split-brain guard: the deposed primary's lease epoch is dead.
	if _, err := proxy.RenewLease(leaseName, "data-a", 1, ttl, clk.Now()); !errors.Is(err, uddi.ErrLeaseStale) {
		t.Errorf("deposed primary renewal = %v, want ErrLeaseStale", err)
	}

	// The render service re-discovers the promoted standby through UDDI
	// and resumes at its replica's version — no full snapshot.
	promoted := promo.Session
	waitFor(t, "render service re-discovery", func() bool {
		_, resumes := promoted.BootstrapStats()
		return resumes >= 1
	})
	if snaps, resumes := promoted.BootstrapStats(); snaps != 0 || resumes != 1 {
		t.Errorf("bootstrap after failover served %d snapshots and %d resumes; want one gap-only resume", snaps, resumes)
	}

	// The promoted session is authoritative: writes flow to the replica.
	for i := 0; i < 2; i++ {
		op := &scene.AddNodeOp{Parent: scene.RootID, ID: promoted.AllocID(), Name: "post", Transform: mathx.Identity()}
		if err := promoted.ApplyUpdate(op, ""); err != nil {
			t.Fatalf("write on promoted session: %v", err)
		}
	}
	waitFor(t, "replica follows the new primary", func() bool {
		return replica.Version() == promoted.Version()
	})
	frame("after the failover")
	t.Logf("thin client: %d frames, zero stale-session errors across the failover", thinFrames)

	subCancel()
	connMu.Lock()
	if lastDial != nil {
		lastDial.Close()
	}
	connMu.Unlock()
	select {
	case <-subErr:
	case <-time.After(15 * time.Second):
		t.Fatal("subscriber never exited")
	}
}

// TestKillPrimaryMidMigrationStandbyRestarts kills the primary data
// service while a load migration is in flight on its distributor. The
// promoted standby holds an exact replica of every scene node, so a
// fresh distributor on the promoted session cleanly restarts the
// migration: all nodes re-assigned, none lost, and the distributed
// frame matches a whole-scene reference render.
func TestKillPrimaryMidMigrationStandbyRestarts(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	// Large snapshots take ≥1ns of simulated transit even on an instant
	// link, so the clock must be moving for the bootstrap to deliver.
	stop := advance(clk)
	defer stop()
	svcA := dataservice.New(dataservice.Config{Name: "data-a", Clock: clk})
	sess := distSession(t, svcA, 12000, 6)

	th := balance.DefaultThresholds()
	th.UnderloadedFor = 2
	d := sess.NewDistributor(th)
	sess.AttachDistributor(d)
	slowSvc := renderservice.New(renderservice.Config{Name: "slow", Device: device.CentrinoLaptop, Workers: 2, Clock: clk})
	fastSvc := renderservice.New(renderservice.Config{Name: "fast", Device: device.SGIOnyx, Workers: 2, Clock: clk})
	if err := d.AddService(&core.LocalHandle{Svc: slowSvc}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddService(&core.LocalHandle{Svc: fastSvc}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Distribute(); err != nil {
		t.Fatal(err)
	}

	// Hot standby replicating the distributed session (scene + camera).
	svcB := dataservice.New(dataservice.Config{Name: "data-b", Clock: clk})
	st := &failover.Standby{Service: svcB, SessionName: "dist", Name: "data-b", Clock: clk}
	repA, repB := netsim.SimPipe(clk, instant(), instant())
	go svcA.ServeConn(repA)
	stCtx, stCancel := context.WithCancel(context.Background())
	defer stCancel()
	stErr := make(chan error, 1)
	go func() { stErr <- st.Run(stCtx, repB) }()
	waitFor(t, "standby caught up", func() bool {
		s := st.Session()
		return s != nil && st.Applied() == sess.Version() && s.Camera() == sess.Camera()
	})

	// Greedy packing put the whole dataset on the Onyx; its overload
	// reports push a migration toward the idle laptop, and those moves
	// are in flight when the primary dies.
	if asg := d.Assignment(); len(asg["fast"]) == 0 {
		t.Fatalf("precondition: expected the fast service to hold nodes, got %v", asg)
	}
	d.ReportLoad(transport.LoadReport{Name: "fast", FPS: 4})
	d.ReportLoad(transport.LoadReport{Name: "slow", FPS: 60})
	d.ReportLoad(transport.LoadReport{Name: "slow", FPS: 60})
	if moves := d.PlanMigration(); len(moves) == 0 {
		t.Fatal("precondition: no migration planned off the overloaded service")
	}

	preKill := sess.Version()
	repA.InjectFaults(netsim.NewFaults(53).KillAtByte(16))
	doomed := &scene.AddNodeOp{Parent: scene.RootID, ID: sess.AllocID(), Name: "doomed", Transform: mathx.Identity()}
	if err := sess.ApplyUpdate(doomed, ""); err == nil {
		t.Fatal("fan-out of the doomed op survived the kill plan")
	}
	select {
	case err := <-stErr:
		if !errors.Is(err, failover.ErrReplicationLost) {
			t.Fatalf("standby exit: %v, want ErrReplicationLost", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("standby never noticed the dead stream")
	}

	promoted, err := st.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if promoted.Version() != preKill {
		t.Fatalf("promoted at v%d, want the last replicated v%d", promoted.Version(), preKill)
	}

	// Restart the migration on the promoted session: distributor state
	// died with the primary, but every scene node survived in the
	// replica, so a fresh distribution covers all of them.
	d2 := promoted.NewDistributor(balance.DefaultThresholds())
	promoted.AttachDistributor(d2)
	if err := d2.AddService(&core.LocalHandle{Svc: slowSvc}); err != nil {
		t.Fatal(err)
	}
	if err := d2.AddService(&core.LocalHandle{Svc: fastSvc}); err != nil {
		t.Fatal(err)
	}
	asg, err := d2.Distribute()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ids := range asg {
		total += len(ids)
	}
	if total != 6 {
		t.Errorf("restarted distribution lost nodes: %d of 6 assigned (%v)", total, asg)
	}

	fb, rep, err := d2.RenderDistributedResilient(context.Background(), 96, 96)
	if err != nil {
		t.Fatalf("render on promoted session: %v (report %+v)", err, rep)
	}
	if rep.Rounds != 1 || len(rep.Failed) != 0 {
		t.Errorf("restarted migration not clean: %+v", rep)
	}
	whole, _, err := slowSvc.RenderSceneOnce(promoted.Snapshot(), renderservice.CameraFromState(promoted.Camera()), 96, 96)
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
		t.Errorf("post-failover frame differs from reference on %.2f%% of bytes", frac*100)
	}
}

// TestJournaledPrimaryCrashRecoveryResumesSubscribers crashes a
// journaling primary mid-fan-out and rebuilds the session from the
// fsynced prefix of its WAL. The op whose fan-out the crash interrupted
// was committed to the journal first, so recovery lands exactly one
// version past what any subscriber saw — and the returning render
// service re-bootstraps and converges on that exact version.
func TestJournaledPrimaryCrashRecoveryResumesSubscribers(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	svcA := dataservice.New(dataservice.Config{Name: "data-a", Clock: clk})
	sessA, err := svcA.CreateSessionFromMesh("skull", "skull", genmodel.Galleon(800))
	if err != nil {
		t.Fatal(err)
	}
	store := wal.NewMemStore()
	if err := sessA.StartJournal(store, 0); err != nil {
		t.Fatal(err)
	}

	// The dialer targets whichever service currently answers for the
	// session: the primary, nothing (crashed), then the recovered one.
	var svcMu sync.Mutex
	current := svcA
	var primaryConn *netsim.SimConn
	var lastDial io.ReadWriteCloser
	dial := func() (io.ReadWriteCloser, error) {
		svcMu.Lock()
		defer svcMu.Unlock()
		if current == nil {
			return nil, errors.New("data service down")
		}
		serveEnd, dialEnd := netsim.SimPipe(clk, instant(), instant())
		if current == svcA {
			primaryConn = serveEnd
		}
		go current.ServeConn(serveEnd)
		lastDial = dialEnd
		return dialEnd, nil
	}

	rs := renderservice.New(renderservice.Config{Name: "rs", Device: device.AthlonDesktop, Workers: 2, Clock: clk})
	subCtx, subCancel := context.WithCancel(context.Background())
	defer subCancel()
	ready := make(chan *renderservice.Session, 4)
	subErr := make(chan error, 1)
	go func() {
		subErr <- rs.SubscribeToDataResilient(subCtx, dial, "skull",
			renderservice.SubscribeOpts{Retry: retry.Policy{MaxAttempts: 50, BaseDelay: 5 * time.Millisecond, Multiplier: 1.5}},
			func(s *renderservice.Session) {
				select {
				case ready <- s:
				default:
				}
			})
	}()
	var replica *renderservice.Session
	select {
	case replica = <-ready:
	case <-time.After(15 * time.Second):
		t.Fatal("render service never bootstrapped")
	}

	for i := 0; i < 3; i++ {
		op := &scene.AddNodeOp{Parent: scene.RootID, ID: sessA.AllocID(), Name: "n", Transform: mathx.Identity()}
		if err := sessA.ApplyUpdate(op, ""); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "replica caught up", func() bool { return replica.Version() == sessA.Version() })
	preCrash := sessA.Version()
	if jv := sessA.JournalVersion(); jv != preCrash {
		t.Fatalf("journal at v%d, session at v%d", jv, preCrash)
	}

	// Crash mid-fan-out. ApplyUpdate commits the op to the journal —
	// fsynced — before the fan-out write that the fault plan kills, so
	// the doomed op is durable even though no subscriber received it.
	svcMu.Lock()
	current = nil
	primaryConn.InjectFaults(netsim.NewFaults(61).KillAtByte(16))
	svcMu.Unlock()
	doomed := &scene.AddNodeOp{Parent: scene.RootID, ID: sessA.AllocID(), Name: "doomed", Transform: mathx.Identity()}
	if err := sessA.ApplyUpdate(doomed, ""); err == nil {
		t.Fatal("fan-out of the doomed op survived the kill plan")
	}

	// Recover from the synced prefix of the journal — what a real crash
	// leaves on disk — into a fresh service process.
	svcB := dataservice.New(dataservice.Config{Name: "data-reborn", Clock: clk})
	recovered, rec, err := svcB.RecoverSession("skull", store.Crashed(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn != nil {
		t.Errorf("fsync-per-commit journal reported a torn tail: %v", rec.Torn)
	}
	if recovered.Version() != preCrash+1 {
		t.Fatalf("recovered to v%d, want exact pre-crash v%d (including the mid-fan-out op)", recovered.Version(), preCrash+1)
	}
	svcMu.Lock()
	current = svcB
	svcMu.Unlock()

	// The subscriber's redial backoff runs on the virtual clock.
	stop := advance(clk)
	defer stop()

	// The returning subscriber re-bootstraps (the op history died with
	// the process, so recovery serves a full snapshot) and converges on
	// the exact recovered version — the crash lost nothing durable.
	waitFor(t, "replica resynced with the recovered service", func() bool {
		return replica.Version() == recovered.Version()
	})
	snaps, resumes := recovered.BootstrapStats()
	if snaps != 1 || resumes != 0 {
		t.Errorf("recovery bootstrap served %d snapshots and %d resumes; want one full snapshot", snaps, resumes)
	}

	subCancel()
	svcMu.Lock()
	if lastDial != nil {
		lastDial.Close()
	}
	svcMu.Unlock()
	select {
	case <-subErr:
	case <-time.After(15 * time.Second):
		t.Fatal("subscriber never exited")
	}
}
