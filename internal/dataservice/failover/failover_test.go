package failover

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataservice"
	"repro/internal/marshal"
	"repro/internal/mathx"
	"repro/internal/netsim"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/uddi"
	"repro/internal/vclock"
)

// instantLink is effectively instantaneous, so SimPipe deliveries need
// no clock advancement and the pipe behaves as a buffered, killable
// stream.
func instantLink() netsim.Link {
	return netsim.Link{BandwidthBps: 1e15, Efficiency: 1, Quality: 1}
}

// waitFor polls cond on clk, every 10 ms of it, until it holds or a
// real-time bound passes. Replication in these tests runs over net.Pipe,
// so progress is driven by goroutine scheduling; a virtual clock must be
// driven while a test waits on it, and each poll is a step of the driver,
// so the step is coarse next to the monitors' one-second polls.
func waitFor(t *testing.T, clk vclock.Clock, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		clk.Sleep(10 * time.Millisecond)
	}
}

// primaryWithSession builds a data service hosting a 2-node session.
func primaryWithSession(t *testing.T, name string) (*dataservice.Service, *dataservice.Session, []scene.NodeID) {
	t.Helper()
	svc := dataservice.New(dataservice.Config{Name: name})
	sess, err := svc.CreateSession("ha")
	if err != nil {
		t.Fatal(err)
	}
	var ids []scene.NodeID
	for i := 0; i < 2; i++ {
		id := sess.AllocID()
		op := &scene.AddNodeOp{Parent: scene.RootID, ID: id, Name: "node", Transform: mathx.Identity()}
		if err := sess.ApplyUpdate(op, "seed"); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return svc, sess, ids
}

// connectStandby wires st to the primary over a fresh simulated link
// and returns a kill function (severs the link like a crash) plus a
// channel with Run's result.
func connectStandby(ctx context.Context, primary *dataservice.Service, st *Standby) (kill func(), done chan error) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	a, b := netsim.SimPipe(clk, instantLink(), instantLink())
	go primary.ServeConn(a)
	done = make(chan error, 1)
	go func() { done <- st.Run(ctx, b) }()
	return func() { a.Kill() }, done
}

// TestStandbyReplicatesReadOnly: the standby bootstraps from the
// primary's snapshot and applies the versioned op stream into a
// read-only replica.
func TestStandbyReplicatesReadOnly(t *testing.T) {
	primary, sess, ids := primaryWithSession(t, "primary")
	st := &Standby{
		Service:     dataservice.New(dataservice.Config{Name: "standby-svc"}),
		SessionName: "ha",
		Name:        "standby-1",
	}
	kill, _ := connectStandby(context.Background(), primary, st)
	defer kill()

	waitFor(t, vclock.Real{}, "bootstrap", func() bool { return st.Applied() == sess.Version() })

	for i := 0; i < 3; i++ {
		op := &scene.SetTransformOp{ID: ids[0], Transform: mathx.Translate(mathx.V3(float64(i+1), 0, 0))}
		if err := sess.ApplyUpdate(op, "user"); err != nil {
			t.Fatal(err)
		}
	}
	want := sess.Version()
	waitFor(t, vclock.Real{}, "op stream", func() bool { return st.Applied() == want })

	replica, ok := st.Service.Session("ha")
	if !ok {
		t.Fatal("no replica session")
	}
	if !replica.IsReadOnly() {
		t.Error("replica is not read-only before promotion")
	}
	if replica.Version() != want {
		t.Errorf("replica at %d, want %d", replica.Version(), want)
	}
	if got := replica.Snapshot().Node(ids[0]).Transform; got != sess.Snapshot().Node(ids[0]).Transform {
		t.Error("replica transform drifted")
	}
	// External writes to the replica are refused while standing by.
	if err := replica.ApplyUpdate(&scene.SetTransformOp{ID: ids[0], Transform: mathx.Identity()}, "rogue"); !errors.Is(err, dataservice.ErrReadOnly) {
		t.Errorf("standby write = %v, want ErrReadOnly", err)
	}
}

// TestStandbyResumesAtVersionAfterReconnect: when the stream dies and
// comes back, the standby resumes at its last applied version and the
// primary serves the gap as ops, not a snapshot.
func TestStandbyResumesAtVersionAfterReconnect(t *testing.T) {
	primary, sess, ids := primaryWithSession(t, "primary")
	st := &Standby{
		Service:     dataservice.New(dataservice.Config{Name: "standby-svc"}),
		SessionName: "ha",
		Name:        "standby-1",
	}
	ctx := context.Background()
	kill, done := connectStandby(ctx, primary, st)
	waitFor(t, vclock.Real{}, "bootstrap", func() bool { return st.Applied() == sess.Version() })

	// The link dies; the replica is retained.
	kill()
	if err := <-done; !errors.Is(err, ErrReplicationLost) {
		t.Fatalf("severed stream returned %v, want ErrReplicationLost", err)
	}
	// Let the primary's serve loop notice the dead link and detach the
	// subscriber before new ops fan out.
	waitFor(t, vclock.Real{}, "unsubscribe", func() bool { return len(sess.SubscriberNames()) == 0 })
	before := st.Applied()

	// The primary advances while the standby is gone.
	for i := 0; i < 2; i++ {
		op := &scene.SetTransformOp{ID: ids[1], Transform: mathx.Translate(mathx.V3(0, float64(i+1), 0))}
		if err := sess.ApplyUpdate(op, "user"); err != nil {
			t.Fatal(err)
		}
	}
	want := sess.Version()

	kill2, _ := connectStandby(ctx, primary, st)
	defer kill2()
	waitFor(t, vclock.Real{}, "gap replay", func() bool { return st.Applied() == want })
	if st.Applied() <= before {
		t.Fatal("no progress after reconnect")
	}
	snapshots, resumes := sess.BootstrapStats()
	if resumes != 1 {
		t.Errorf("resumes = %d, want 1 (gap-only resync)", resumes)
	}
	if snapshots != 1 {
		t.Errorf("snapshots = %d, want only the initial bootstrap", snapshots)
	}
}

// TestStandbyEndsStreamOnGap: a versioned op that skips past applied+1
// means one was lost, so the standby ends the stream with
// ErrReplicationLost instead of applying it blind; its redial resumes at
// the copy.
func TestStandbyEndsStreamOnGap(t *testing.T) {
	st := &Standby{
		Service:     dataservice.New(dataservice.Config{Name: "standby-svc"}),
		SessionName: "ha",
		Name:        "standby-1",
	}
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() { done <- st.Run(context.Background(), b) }()

	prim := transport.NewConn(a)
	if _, _, err := prim.Receive(); err != nil { // hello
		t.Fatal(err)
	}
	// Bootstrap an empty scene (an op before the bootstrap reply is lost
	// as well — see TestFollowerConformance in internal/dataservice)...
	var boot bytes.Buffer
	if err := marshal.WriteScene(&boot, scene.New()); err != nil {
		t.Fatal(err)
	}
	if err := prim.Send(transport.MsgSceneSnapshot, boot.Bytes()); err != nil {
		t.Fatal(err)
	}
	// ...then an op from far in the future.
	var buf bytes.Buffer
	op := &scene.SetNameOp{ID: scene.RootID, Name: "x"}
	if err := marshal.WriteOp(&buf, op); err != nil {
		t.Fatal(err)
	}
	if err := prim.Send(transport.MsgSceneOpVer, transport.PackVersioned(100, buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrReplicationLost) {
		t.Fatalf("standby ended with %v, want ErrReplicationLost", err)
	}
	if v := st.Applied(); v != 0 {
		t.Errorf("standby applied through %d, want its bootstrap's 0", v)
	}
}

// TestKeeperLosesLeaseToNewerEpoch: a primary that sleeps through its
// TTL finds the lease claimed at the next epoch, and its next renewal
// returns ErrLeaseLost.
func TestKeeperLosesLeaseToNewerEpoch(t *testing.T) {
	reg := uddi.NewRegistry()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	k := &Keeper{Leases: reg, Clock: clk, Service: "data:ha", Holder: "primary", Renew: time.Second}
	l, err := k.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if l.Epoch != 1 {
		t.Fatalf("epoch %d", l.Epoch)
	}

	// The primary stalls: TTL (3×renew) passes with no renewal, and a
	// standby claims the succession.
	clk.Advance(k.ttl() + time.Second)
	if _, err := reg.AcquireLease("data:ha", "standby", k.ttl(), clk.Now()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- k.Run(ctx) }()
	stop := clk.Drive()
	defer stop()
	select {
	case err := <-done:
		if !errors.Is(err, ErrLeaseLost) {
			t.Fatalf("keeper returned %v, want ErrLeaseLost", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("keeper did not detect the lost lease")
	}
}

// TestMonitorPromotesOnLapse: the standby's monitor claims the lapsed
// lease at the next epoch, promotes the replica to writable, and the
// deposed primary's renewal is rejected.
func TestMonitorPromotesOnLapse(t *testing.T) {
	reg := uddi.NewRegistry()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	primary, sess, ids := primaryWithSession(t, "primary")

	keeper := &Keeper{Leases: reg, Clock: clk, Service: "data:ha", Holder: "primary", Renew: time.Second}
	if _, err := keeper.Acquire(); err != nil {
		t.Fatal(err)
	}

	st := &Standby{
		Service:     dataservice.New(dataservice.Config{Name: "standby-svc"}),
		SessionName: "ha",
		Name:        "standby-1",
	}
	kill, _ := connectStandby(context.Background(), primary, st)
	waitFor(t, vclock.Real{}, "replication", func() bool { return st.Applied() == sess.Version() })
	// The primary dies: no more renewals, stream severed.
	kill()

	reregistered := false
	mon := &Monitor{
		Leases: reg, Clock: clk,
		Service: "data:ha", Holder: "standby-1", Poll: time.Second,
		Standby:    st,
		Reregister: func() error { reregistered = true; return nil },
	}
	done := make(chan struct{})
	var promo *Promotion
	var monErr error
	go func() { defer close(done); promo, monErr = mon.Run(context.Background()) }()
	stop := clk.Drive()
	defer stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("monitor never promoted")
	}
	if monErr != nil {
		t.Fatal(monErr)
	}
	if promo.Lease.Epoch != 2 || promo.Lease.Holder != "standby-1" {
		t.Fatalf("claimed lease %+v", promo.Lease)
	}
	if promo.Version != sess.Version() {
		t.Errorf("promoted at version %d, want %d", promo.Version, sess.Version())
	}
	if !reregistered {
		t.Error("re-register hook not invoked")
	}
	if promo.Session.IsReadOnly() {
		t.Error("promoted session still read-only")
	}
	// The new primary accepts writes.
	op := &scene.SetTransformOp{ID: ids[0], Transform: mathx.Translate(mathx.V3(7, 0, 0))}
	if err := promo.Session.ApplyUpdate(op, "user"); err != nil {
		t.Fatal(err)
	}
	// Split-brain guard: the deposed primary cannot renew itself back.
	if _, err := reg.RenewLease("data:ha", "primary", 1, time.Second, clk.Now()); !errors.Is(err, uddi.ErrLeaseStale) {
		t.Errorf("deposed renew = %v, want ErrLeaseStale", err)
	}
}

// TestMonitorIgnoresUnregisteredLease: no primary ever held the lease —
// there is nothing to succeed, so the monitor keeps waiting.
func TestMonitorIgnoresUnregisteredLease(t *testing.T) {
	reg := uddi.NewRegistry()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	st := &Standby{Service: dataservice.New(dataservice.Config{Name: "s"}), SessionName: "ha", Name: "standby-1"}
	mon := &Monitor{Leases: reg, Clock: clk, Service: "data:ha", Holder: "standby-1", Poll: time.Second, Standby: st}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { _, err := mon.Run(ctx); done <- err }()
	clk.Advance(time.Hour)
	cancel()
	clk.Advance(time.Second)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("monitor returned %v on an unregistered lease", err)
	}
}

// TestMonitorHandicapYieldsToFasterClaimant: a lagging standby's
// handicap makes it wait out its version deficit before claiming, and
// the post-wait re-check makes it stand down when a more-caught-up
// rival claimed the succession during the wait — the mechanism that
// turns N racing monitors into "most-caught-up replica wins".
func TestMonitorHandicapYieldsToFasterClaimant(t *testing.T) {
	reg := uddi.NewRegistry()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	primary, sess, _ := primaryWithSession(t, "primary")

	keeper := &Keeper{Leases: reg, Clock: clk, Service: "data:ha", Holder: "primary", Renew: time.Second}
	if _, err := keeper.Acquire(); err != nil {
		t.Fatal(err)
	}

	st := &Standby{Service: dataservice.New(dataservice.Config{Name: "laggard-svc"}), SessionName: "ha", Name: "laggard"}
	kill, _ := connectStandby(context.Background(), primary, st)
	waitFor(t, vclock.Real{}, "replication", func() bool { return st.Applied() == sess.Version() })
	kill()

	var handicaps atomic.Int32
	mon := &Monitor{
		Leases: reg, Clock: clk,
		Service: "data:ha", Holder: "laggard", Poll: time.Second,
		Standby: st,
		Handicap: func() time.Duration {
			handicaps.Add(1)
			// The caught-up rival claims while we wait out the deficit.
			// Claiming from inside the callback pins the interleaving:
			// the rival always wins the race this test is about.
			if _, err := reg.AcquireLease("data:ha", "rival", time.Hour, clk.Now()); err != nil {
				t.Errorf("rival claim: %v", err)
			}
			return 5 * time.Second
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { _, err := mon.Run(ctx); done <- err }()
	stop := clk.Drive()
	waitFor(t, clk, "handicap consulted", func() bool { return handicaps.Load() >= 1 })
	// Give the monitor time to finish its wait and re-check; the rival's
	// hour-long lease stays live, so it must keep watching, not promote.
	waitFor(t, clk, "lease settled on rival", func() bool {
		l, live, err := reg.GetLease("data:ha", clk.Now())
		return err == nil && live && l.Holder == "rival"
	})
	stop()
	cancel()
	clk.Advance(10 * time.Second)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("handicapped monitor returned %v; must stand down to the rival", err)
	}
	if st.Promoted() {
		t.Error("laggard promoted despite losing the claim race")
	}
	l, live, err := reg.GetLease("data:ha", clk.Now())
	if err != nil || !live || l.Holder != "rival" {
		t.Errorf("lease %+v live=%v err=%v, want the rival holding it", l, live, err)
	}
}

// TestMonitorHandicapStillPromotesUnopposed: a handicap delays the
// claim but never blocks it — with no rival, the lagging standby still
// succeeds the dead primary after waiting out its deficit.
func TestMonitorHandicapStillPromotesUnopposed(t *testing.T) {
	reg := uddi.NewRegistry()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	primary, sess, _ := primaryWithSession(t, "primary")

	keeper := &Keeper{Leases: reg, Clock: clk, Service: "data:ha", Holder: "primary", Renew: time.Second}
	if _, err := keeper.Acquire(); err != nil {
		t.Fatal(err)
	}

	st := &Standby{Service: dataservice.New(dataservice.Config{Name: "slow-svc"}), SessionName: "ha", Name: "slow"}
	kill, _ := connectStandby(context.Background(), primary, st)
	waitFor(t, vclock.Real{}, "replication", func() bool { return st.Applied() == sess.Version() })
	kill()

	mon := &Monitor{
		Leases: reg, Clock: clk,
		Service: "data:ha", Holder: "slow", Poll: time.Second,
		Standby:  st,
		Handicap: func() time.Duration { return 3 * time.Second },
	}
	done := make(chan struct{})
	var promo *Promotion
	var monErr error
	go func() { defer close(done); promo, monErr = mon.Run(context.Background()) }()
	stop := clk.Drive()
	defer stop()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("unopposed handicapped monitor never promoted")
	}
	if monErr != nil {
		t.Fatal(monErr)
	}
	if promo.Lease.Holder != "slow" || promo.Lease.Epoch != 2 {
		t.Fatalf("claimed lease %+v, want slow at epoch 2", promo.Lease)
	}
	if !st.Promoted() {
		t.Error("standby not promoted")
	}
}
