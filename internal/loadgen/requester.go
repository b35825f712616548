package loadgen

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/gateway"
)

// pacerStep is how far each pacer iteration advances the virtual
// clock. Small enough that modeled costs (2ms ops, 25ms frames)
// resolve into distinct wakeups; assertions never depend on the pace
// itself.
const pacerStep = time.Millisecond

// Run drives the scenario to completion: one requester goroutine per
// session issues the open-loop schedule, while this goroutine paces
// the virtual clock and injects the scheduled node kill. Returns once
// every requester has drained; record of the run accumulates in rep.
func (f *Fleet) Run(ctx context.Context, rep *Reporter) {
	sc := f.Scenario
	rng := rand.New(rand.NewSource(sc.Seed))
	start := f.Clock.Now()
	end := start.Add(sc.Duration)

	var wg sync.WaitGroup
	for i := 0; i < sc.Sessions; i++ {
		// Start phases are jittered across one full frame period —
		// interval × FrameEvery, not one interval, or every session's
		// k%FrameEvery frame ticks would land in the same slice of the
		// period and the synchronized burst would swamp render
		// capacity that handles the average load easily. (Seeded and
		// drawn before any goroutine starts, so the schedule is a pure
		// function of the scenario.)
		jitter := time.Duration(rng.Int63n(int64(sc.Interval) * int64(sc.FrameEvery)))
		wg.Add(1)
		go func(idx int, jitter time.Duration) {
			defer wg.Done()
			f.runSession(ctx, idx, jitter, end, rep)
		}(i, jitter)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()

	var killAt, partitionAt, healAt, sickAt time.Time
	if sc.KillNodeAt > 0 {
		killAt = start.Add(sc.KillNodeAt)
	}
	if sc.PartitionAt > 0 {
		partitionAt = start.Add(sc.PartitionAt)
	}
	if sc.HealAt > 0 {
		healAt = start.Add(sc.HealAt)
	}
	if sc.SickDiskAt > 0 {
		sickAt = start.Add(sc.SickDiskAt)
	}
	victimRegion := sc.victimRegion()
	killed, partitioned, healed, sickened := false, false, false, false
	for {
		select {
		case <-done:
			if partitioned && !healed {
				// The run ended still cut; close the partition-era
				// accounting window at end-of-run instead of heal time.
				cross, victim := f.bootstrapBytes(victimRegion)
				rep.noteHeal(0, cross, victim)
			}
			rep.setVirtualDuration(f.Clock.Now().Sub(start))
			return
		default:
			f.Clock.Advance(pacerStep)
			if !killed && !killAt.IsZero() && !f.Clock.Now().Before(killAt) {
				// Kill the most-loaded node, telling nobody: the
				// gateway must discover the death from its own failed
				// dispatches and heal.
				victim := f.PickVictim()
				victim.Kill()
				rep.noteKill(victim.Name(), f.Clock.Now().Sub(start))
				killed = true
			}
			if !partitioned && !partitionAt.IsZero() && !f.Clock.Now().Before(partitionAt) {
				// Cut the last region off mid-run. Unlike the node
				// kill, the topology event is visible control-plane
				// state, so the gateway is told — what it must get
				// right is serving every cut-region session from a
				// surviving replica without moving a bootstrap byte
				// across the partition.
				cross, victim := f.bootstrapBytes(victimRegion)
				f.Topology.Partition(victimRegion)
				f.Gateway.TopologyChanged()
				rep.notePartition(victimRegion, f.Clock.Now().Sub(start), cross, victim)
				partitioned = true
			}
			if !sickened && !sickAt.IsZero() && !f.Clock.Now().Before(sickAt) {
				// Poison the most-loaded node's disk, telling nobody:
				// the node stays alive and keeps serving frames, but its
				// next WAL commit fails and the gateway must evacuate.
				victim := f.PickVictim()
				f.PoisonDisk(victim.Name())
				rep.noteSickDisk(victim.Name(), f.Clock.Now().Sub(start))
				sickened = true
			}
			if sickened {
				// The control-loop sweep the gateway tier would run:
				// drains any session the dispatch path's own retries
				// have not already pushed off the sick disk. Cheap
				// no-op once the node is fully drained.
				f.Gateway.SyncStorageHealth()
			}
			if partitioned && !healed && !healAt.IsZero() && !f.Clock.Now().Before(healAt) {
				// Sample the accounting window before reconnecting:
				// post-heal catch-up traffic is legitimate.
				cross, victim := f.bootstrapBytes(victimRegion)
				f.Topology.Heal()
				f.Gateway.TopologyChanged()
				rep.noteHeal(f.Clock.Now().Sub(start), cross, victim)
				healed = true
			}
			runtime.Gosched()
		}
	}
}

// runSession is one session's open-loop driver: requests fire on the
// absolute virtual timeline (start + k·interval), so a slow response
// does not stretch the schedule — it overlaps the next tick, exactly
// the backlog behavior an open-loop generator exists to create. Every
// FrameEvery-th request is an interactive frame; the rest are
// background scene mutations, exercising both admission classes.
func (f *Fleet) runSession(ctx context.Context, idx int, jitter time.Duration, end time.Time, rep *Reporter) {
	sc := f.Scenario
	tenant := sc.tenant(idx)
	session := sessionName(idx)
	f.Clock.Sleep(jitter)
	next := f.Clock.Now()
	k := 0
	for {
		if ctx.Err() != nil {
			return
		}
		now := f.Clock.Now()
		if !now.Before(end) {
			return
		}
		if now.Before(next) {
			f.Clock.Sleep(next.Sub(now))
			continue
		}
		k++
		req := gateway.Request{Tenant: tenant, Session: session, Kind: gateway.KindMutate}
		if k%sc.FrameEvery == 0 {
			req.Kind = gateway.KindFrame
			req.Interactive = true
		}
		_, err := f.Gateway.Dispatch(ctx, req)
		rep.record(err)
		next = next.Add(sc.Interval)
		if now := f.Clock.Now(); next.Before(now) {
			next = now
		}
	}
}
