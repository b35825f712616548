package dataservice

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/compositor"
	"repro/internal/device"
	"repro/internal/renderservice"
	"repro/internal/retry"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// failedOf lists the named services whose peer record is marked failed.
func failedOf(d *Distributor, names ...string) []string {
	var out []string
	for _, name := range names {
		if d.Health(name).Failed {
			out = append(out, name)
		}
	}
	return out
}

// TestDeadServicesLivenessTimeout: a service that stops sending load
// reports is flagged dead after the timeout, while one that keeps
// reporting stays live — the paper's missed-load-report failure signal.
func TestDeadServicesLivenessTimeout(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	svc := New(Config{Name: "data", Clock: clk})
	sess := multiMeshSession(t, svc, 2)
	d := sess.NewDistributor(balance.DefaultThresholds())

	d.AddService(&localHandle{newRender("chatty", device.AthlonDesktop)})
	d.AddService(&localHandle{newRender("silent", device.CentrinoLaptop)})

	if dead := d.DeadServices(5 * time.Second); len(dead) != 0 {
		t.Fatalf("fresh services flagged dead: %v", dead)
	}

	clk.Advance(10 * time.Second)
	d.ReportLoad(transport.LoadReport{Name: "chatty", FPS: 30})
	// A report from a detached service must not create liveness state,
	// nor count as overload pressure.
	d.ReportLoad(transport.LoadReport{Name: "ghost", FPS: 30})
	d.ReportLoad(transport.LoadReport{Name: "ghost", FPS: 2})
	if d.NeedRecruitment() {
		t.Fatal("an unattached service's report triggered recruitment")
	}

	if dead := d.DeadServices(5 * time.Second); len(dead) != 1 || dead[0] != "silent" {
		t.Fatalf("dead services: %v, want [silent]", dead)
	}
	if dead := d.DeadServices(15 * time.Second); len(dead) != 0 {
		t.Fatalf("timeout not honored: %v", dead)
	}

	// Feeding the dead service to FailService records it and orphans its
	// assignment.
	if _, err := d.Distribute(); err != nil {
		t.Fatal(err)
	}
	before := 0
	for _, ids := range d.Assignment() {
		before += len(ids)
	}
	orphans := d.FailService("silent")
	after := 0
	for _, ids := range d.Assignment() {
		after += len(ids)
	}
	if after+len(orphans) != before {
		t.Errorf("orphan accounting: %d assigned + %d orphans != %d before", after, len(orphans), before)
	}
	failed := failedOf(d, "chatty", "silent")
	if len(failed) != 1 || failed[0] != "silent" {
		t.Errorf("failed services: %v", failed)
	}
	// A departed service gets no parts: no nodes, no tile.
	tiles, err := d.PlanTiles(32, 32)
	if _, tiled := tiles["silent"]; err != nil || tiled || len(d.Assignment()["silent"]) > 0 {
		t.Errorf("failed service still planned: tiles %v (%v), assigned %v", tiles, err, d.Assignment())
	}

	// A failed service that keeps reporting is not attached either.
	d.ReportLoad(transport.LoadReport{Name: "silent", FPS: 2})
	if d.NeedRecruitment() {
		t.Error("a failed service's report triggered recruitment")
	}
	for _, mv := range d.PlanMigration() {
		if mv.From == "ghost" || mv.To == "ghost" || mv.From == "silent" || mv.To == "silent" {
			t.Errorf("migration names a service not attached: %+v", mv)
		}
	}
}

// TestLoadsSortedByName: the attached services' loads the migration policy
// reads are listed by name, whatever the attachment order.
func TestLoadsSortedByName(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess := multiMeshSession(t, svc, 2)
	d := sess.NewDistributor(balance.DefaultThresholds())
	d.AddService(&localHandle{newRender("zeta", device.AthlonDesktop)})
	d.AddService(&localHandle{newRender("alpha", device.CentrinoLaptop)})
	d.mu.Lock()
	loads := d.loads()
	d.mu.Unlock()
	if len(loads) != 2 || loads[0].Capacity.Name != "alpha" {
		t.Errorf("loads: %+v", loads)
	}
}

// crashyHandle is a render handle with a kill switch, for failing a
// service at a precise point in a test. With dieReplying set, its next
// render is drawn and then lost with the service, as when a process dies
// writing its reply.
type crashyHandle struct {
	inner       RenderHandle
	dead        atomic.Bool
	dieReplying bool
}

var errCrashedSvc = errors.New("render service crashed")

func (h *crashyHandle) Name() string { return h.inner.Name() }

func (h *crashyHandle) Capacity() (transport.CapacityReport, error) {
	if h.dead.Load() {
		return transport.CapacityReport{}, errCrashedSvc
	}
	return h.inner.Capacity()
}

func (h *crashyHandle) Render(job RenderJob) (compositor.Tile, error) {
	if h.dead.Load() {
		return compositor.Tile{}, errCrashedSvc
	}
	tile, err := h.inner.Render(job)
	if h.dieReplying {
		h.dead.Store(true)
		return compositor.Tile{}, errCrashedSvc
	}
	return tile, err
}

// TestKilledPeerPartIsReplaced: three services each own nodes, and one is
// killed mid-reply. A subset frame detaches it, re-places its nodes on
// the survivors and draws just those there, within the same frame: the
// frame matches a whole-scene render, and each survivor draws each of its
// parts once — its own share is not redrawn. Nothing here waits on the
// clock, which no one advances.
func TestKilledPeerPartIsReplaced(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1000, 0))
	reg := telemetry.NewRegistry(clk)
	svc := New(Config{Name: "data", Clock: clk, Metrics: reg})
	sess := multiMeshSession(t, svc, 6)
	d := sess.NewDistributor(balance.DefaultThresholds())
	renders := map[string]*renderservice.Service{}
	for _, name := range []string{"a", "b", "victim"} {
		renders[name] = renderservice.New(renderservice.Config{Name: name, Device: device.SGIOnyx, Workers: 2, Clock: clk, Metrics: reg})
	}
	victim := &crashyHandle{inner: &localHandle{renders["victim"]}, dieReplying: true}
	for _, h := range []RenderHandle{&localHandle{renders["a"]}, &localHandle{renders["b"]}, victim} {
		if err := d.AddService(h); err != nil {
			t.Fatal(err)
		}
	}
	asg, err := d.Distribute()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "victim"} {
		if len(asg[name]) == 0 {
			t.Fatalf("precondition: every service owns nodes, got %v", asg)
		}
	}
	orphans := asg["victim"]

	fb, _, err := d.Render(context.Background(), FrameRequest{W: 64, H: 64, Mode: Subsets})
	if err != nil {
		t.Fatalf("frame lost with its victim: %v", err)
	}
	if failed := failedOf(d, "a", "b", "victim"); len(failed) != 1 || failed[0] != "victim" {
		t.Errorf("failed services: %v, want [victim]", failed)
	}
	if names := d.ServiceNames(); slices.Contains(names, "victim") {
		t.Errorf("victim still attached: %v", names)
	}
	after := d.Assignment()
	snap := reg.Snapshot()
	for _, name := range []string{"a", "b"} {
		want := int64(1) // its own share
		for _, id := range orphans {
			if slices.Contains(after[name], id) {
				want = 2 // and one part for the victim's nodes it took over
				break
			}
		}
		if got := snap.CounterValue(name, "subsets_total", ""); got != want {
			t.Errorf("survivor %s drew %d parts, want %d", name, got, want)
		}
	}
	if got := snap.CounterValue("victim", "subsets_total", ""); got != 1 {
		t.Errorf("victim drew %d parts, want 1 (then died replying)", got)
	}
	if got := snap.CounterValue("data", "recovery_reassigned_nodes_total", ""); got != int64(len(orphans)) {
		t.Errorf("reassigned %d nodes, want the victim's %d", got, len(orphans))
	}

	whole, _, err := renders["a"].RenderSceneOnce(sess.Snapshot(), renderservice.CameraFromState(sess.Camera()), 64, 64)
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
}

// TestFailureDuringInFlightMigration: load reports trigger a migration
// toward the fast service, and the fast service dies after the moves are
// applied but before the next frame — mid-migration. Recovery must fold
// every node (original and freshly migrated) back onto the survivor
// without losing any, and the frame must still match a whole-scene
// reference.
func TestFailureDuringInFlightMigration(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess := multiMeshSession(t, svc, 4)
	th := balance.DefaultThresholds()
	th.UnderloadedFor = 2
	d := sess.NewDistributor(th)
	sess.AttachDistributor(d)

	slow := newRender("slow", device.CentrinoLaptop)
	fast := &crashyHandle{inner: &localHandle{newRender("fast", device.SGIOnyx)}}
	d.AddService(&localHandle{slow})
	d.AddService(fast)
	if _, err := d.Distribute(); err != nil {
		t.Fatal(err)
	}

	// The slow service reports overload; migration moves work to fast.
	d.ReportLoad(transport.LoadReport{Name: "slow", FPS: 4})
	d.ReportLoad(transport.LoadReport{Name: "fast", FPS: 60})
	d.ReportLoad(transport.LoadReport{Name: "fast", FPS: 60})
	before := d.Assignment()
	moves := d.PlanMigration()
	if len(before["slow"]) > 0 && len(moves) == 0 {
		t.Fatal("precondition: no migration planned for overloaded service")
	}

	// The migration destination crashes with the moves in flight.
	fast.dead.Store(true)

	fb, _, err := d.Render(context.Background(), FrameRequest{W: 64, H: 64, Mode: Subsets})
	if err != nil {
		t.Fatalf("render through the failure: %v", err)
	}
	if failed := failedOf(d, "slow", "fast"); len(failed) != 1 || failed[0] != "fast" {
		t.Errorf("failed services: %v, want [fast]", failed)
	}

	// No node may be lost: everything lands on the survivor.
	after := d.Assignment()
	total := 0
	for name, ids := range after {
		if name == "fast" {
			t.Errorf("failed service still assigned %v", ids)
		}
		total += len(ids)
	}
	if total != 4 {
		t.Errorf("assignment lost nodes mid-migration: %d of 4 remain (%v)", total, after)
	}

	whole, _, err := slow.RenderSceneOnce(sess.Snapshot(), renderservice.CameraFromState(sess.Camera()), 64, 64)
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
}

// TestRenderDuringMigration renders frames while another goroutine keeps
// reporting overload and applying migrations, each of which rewrites the
// live assignment: rendering must work from its own copy. Run under
// -race this is the probe for the shared map and the in-place slice
// shift; the assertions pin that no frame fails and no node is lost.
func TestRenderDuringMigration(t *testing.T) {
	svc := New(Config{Name: "data"})
	sess := multiMeshSession(t, svc, 6)
	th := balance.DefaultThresholds()
	th.UnderloadedFor = 1
	d := sess.NewDistributor(th)
	d.AddService(&localHandle{newRender("a", device.SGIOnyx)})
	d.AddService(&localHandle{newRender("b", device.SGIOnyx)})
	if _, err := d.Distribute(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	migrated := make(chan int)
	go func() {
		moves := 0
		for over, under := "a", "b"; ; over, under = under, over {
			select {
			case <-stop:
				migrated <- moves
				return
			default:
			}
			d.ReportLoad(transport.LoadReport{Name: over, FPS: 4})
			d.ReportLoad(transport.LoadReport{Name: under, FPS: 60})
			moves += len(d.PlanMigration())
		}
	}()
	for i := 0; i < 40; i++ {
		if _, _, err := d.Render(context.Background(), FrameRequest{W: 32, H: 32, Mode: Subsets}); err != nil {
			t.Errorf("frame %d: %v", i, err)
			break
		}
	}
	close(stop)
	if moves := <-migrated; moves == 0 {
		t.Error("no migration happened while rendering")
	}
	total := 0
	for _, ids := range d.Assignment() {
		total += len(ids)
	}
	if total != 6 {
		t.Errorf("assignment holds %d of 6 nodes after concurrent migration", total)
	}
}

// failingSource is a discovery source that never answers.
type failingSource struct{}

func (failingSource) ScanAccessPoints(string) ([]string, error) {
	return nil, errors.New("registry unreachable")
}

// TestSubsetFrameCancelledDuringRecovery: the only service fails its part,
// and recovery retries recruitment forever on a clock no one advances.
// Cancelling the frame's ctx ends it with context.Canceled.
func TestSubsetFrameCancelledDuringRecovery(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(1000, 0))
	svc := New(Config{Name: "data", Clock: clk})
	sess := multiMeshSession(t, svc, 2)
	d := sess.NewDistributor(balance.DefaultThresholds())
	victim := &crashyHandle{inner: &localHandle{newRender("victim", device.SGIOnyx)}}
	if err := d.AddService(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Distribute(); err != nil {
		t.Fatal(err)
	}
	d.SetRecruiter(failingSource{}, func(string) (RenderHandle, error) {
		return nil, errors.New("nothing to dial")
	}, retry.Policy{MaxAttempts: 0, BaseDelay: time.Second})
	victim.dead.Store(true)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := d.Render(ctx, FrameRequest{W: 32, H: 32, Mode: Subsets})
		done <- err
	}()
	for start := time.Now(); clk.PendingWaiters() == 0; runtime.Gosched() { // recruitment's backoff
		if time.Since(start) > 5*time.Second {
			t.Fatal("recovery never backed off")
		}
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled frame returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the frame did not return once cancelled")
	}
}
