package failover

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataservice"
	"repro/internal/uddi"
	"repro/internal/vclock"
)

// TestMonitorAbstainsWhileSick: a standby whose Abstain hook reports an
// unfit disk sits the succession race out — the lapsed lease goes
// unclaimed — and claims only once the hook clears (the sick disk was
// replaced). The lease epoch proves no claim happened while sick.
func TestMonitorAbstainsWhileSick(t *testing.T) {
	reg := uddi.NewRegistry()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	primary, sess, _ := primaryWithSession(t, "primary")

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
	kill() // primary dies; no more renewals

	var sick atomic.Bool
	sick.Store(true)
	var polled atomic.Int64
	mon := &Monitor{
		Leases: reg, Clock: clk,
		Service: "data:ha", Holder: "standby-1", Poll: time.Second,
		Standby: st,
		Abstain: func() bool { polled.Add(1); return sick.Load() },
	}
	done := make(chan struct{})
	var promo *Promotion
	var monErr error
	go func() { defer close(done); promo, monErr = mon.Run(context.Background()) }()
	stop := clk.Drive()
	defer stop()

	// The lease lapses and stays lapsed: the sick standby keeps seeing
	// the opening (Abstain consulted repeatedly) yet never claims.
	waitFor(t, clk, "abstain polls", func() bool { return polled.Load() >= 5 })
	if _, live, err := reg.GetLease("data:ha", clk.Now()); err != nil || live {
		t.Fatalf("lease live=%v err=%v while only claimant abstains, want lapsed", live, err)
	}
	select {
	case <-done:
		t.Fatalf("sick standby promoted: %+v err=%v", promo, monErr)
	default:
	}

	// Disk replaced: the same monitor claims on its next poll.
	sick.Store(false)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("recovered standby never promoted")
	}
	if monErr != nil {
		t.Fatal(monErr)
	}
	if promo.Lease.Epoch != 2 || promo.Lease.Holder != "standby-1" {
		t.Fatalf("claimed lease %+v, want epoch 2 by standby-1", promo.Lease)
	}
	if promo.Version != sess.Version() {
		t.Errorf("promoted at version %d, want %d", promo.Version, sess.Version())
	}
}
