package dataservice

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/balance"
	"repro/internal/compositor"
	"repro/internal/device"
	"repro/internal/renderservice"
	"repro/internal/transport"
	"repro/internal/vclock"
)

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
	// A report from a detached service must not create liveness state.
	d.ReportLoad(transport.LoadReport{Name: "ghost", FPS: 30})

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
	failed := d.FailedServices()
	if len(failed) != 1 || failed[0] != "silent" {
		t.Errorf("failed services: %v", failed)
	}
}

// crashyHandle is a render handle with a kill switch, for failing a
// service at a precise point in a test.
type crashyHandle struct {
	inner RenderHandle
	dead  atomic.Bool
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
	return h.inner.Render(job)
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

	fb, rep, err := d.RenderDistributedResilient(context.Background(), 64, 64)
	if err != nil {
		t.Fatalf("resilient render: %v (report %+v)", err, rep)
	}
	if len(rep.Failed) != 1 || rep.Failed[0] != "fast" {
		t.Errorf("failed services: %v, want [fast]", rep.Failed)
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
		if _, err := d.RenderDistributed(32, 32); err != nil {
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
