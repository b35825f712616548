package loadgen

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/gateway"
)

// Run drives the scenario to completion. Each session, each fault and the
// storage sweep is a callback on the fleet's clock (vclock's AfterFunc),
// which Run drives (vclock's Drive): time moves only when every request in
// flight and every node is blocked, and nothing else may drive it
// meanwhile. Returns once every session has ended; rep records the run.
func (f *Fleet) Run(ctx context.Context, rep *Reporter) {
	stopClock := f.Clock.Drive()
	defer stopClock()
	sc := f.Scenario
	start := f.Clock.Now()
	end := start.Add(sc.Duration)

	var sessions sync.WaitGroup
	sc.eachJitter(func(idx int, jitter time.Duration) {
		sessions.Add(1)
		f.Clock.AfterFunc(jitter, f.session(ctx, idx, start.Add(jitter), end, rep, sessions.Done))
	})

	// after arms fire d from now (nothing when d is zero: the fault is
	// unset). Faults and the sweep fire one at a time under mu, and none
	// fires once the run has ended or ctx is cancelled.
	var mu sync.Mutex
	ended, cut := false, false
	after := func(d time.Duration, fire func()) {
		if d > 0 {
			f.Clock.AfterFunc(d, func() {
				mu.Lock()
				defer mu.Unlock()
				if !ended && ctx.Err() == nil {
					fire()
				}
			})
		}
	}
	// sweep is the control-loop pass the gateway tier would run: it drains
	// any session the dispatch path's own retries have not already pushed
	// off the sick disk, and is a cheap no-op once the node is drained.
	var sweep func()
	sweep = func() {
		f.Gateway.SyncStorageHealth()
		after(time.Millisecond, sweep)
	}
	victimRegion := sc.victimRegion()
	after(sc.KillNodeAt, func() {
		// Kill the most-loaded node, telling nobody: the gateway must
		// discover the death from its own failed dispatches and heal.
		victim := f.PickVictim()
		victim.Kill()
		rep.noteKill(victim.Name(), sc.KillNodeAt)
	})
	after(sc.PartitionAt, func() {
		// Cut the last region off mid-run. Unlike the node kill, the
		// topology event is visible control-plane state, so the gateway
		// is told — what it must get right is serving every cut-region
		// session from a surviving replica without moving a bootstrap
		// byte across the partition.
		cross, victim := f.bootstrapBytes(victimRegion)
		f.Topology.Partition(victimRegion)
		f.Gateway.TopologyChanged()
		rep.notePartition(victimRegion, sc.PartitionAt, cross, victim)
		cut = true
	})
	after(sc.SickDiskAt, func() {
		// Poison the most-loaded node's disk, telling nobody: the node
		// stays alive and keeps serving frames, but its next WAL commit
		// fails and the gateway must evacuate.
		victim := f.PickVictim()
		f.plans[victim.Name()].SickNow()
		rep.noteSickDisk(victim.Name(), sc.SickDiskAt)
		sweep()
	})
	after(sc.HealAt, func() {
		// Sample the accounting window before reconnecting: post-heal
		// catch-up traffic is legitimate.
		cross, victim := f.bootstrapBytes(victimRegion)
		f.Topology.Heal()
		f.Gateway.TopologyChanged()
		rep.noteHeal(sc.HealAt, cross, victim)
		cut = false
	})

	sessions.Wait()
	mu.Lock()
	defer mu.Unlock()
	ended = true
	if cut {
		// The run ended still cut; close the partition-era accounting
		// window at end-of-run instead of heal time.
		cross, victim := f.bootstrapBytes(victimRegion)
		rep.noteHeal(0, cross, victim)
	}
	rep.setVirtualDuration(f.Clock.Now().Sub(start))
}

// eachJitter draws each session's start phase from the seed, in session
// order, so the schedule is a pure function of the scenario. Phases are
// jittered across one full frame period — interval × FrameEvery, not one
// interval, or every session's k%FrameEvery frame ticks would land in the
// same slice of the period and the synchronized burst would swamp render
// capacity that handles the average load easily.
func (sc Scenario) eachJitter(fn func(session int, jitter time.Duration)) {
	rng := rand.New(rand.NewSource(sc.Seed))
	for i := 0; i < sc.Sessions; i++ {
		fn(i, time.Duration(rng.Int63n(int64(sc.Interval)*int64(sc.FrameEvery))))
	}
}

// scheduled counts the requests the open-loop schedule holds: a session
// whose phase is j fires at j, j+Interval, j+2·Interval, ... for as long
// as that lands before Duration.
func (sc Scenario) scheduled() int64 {
	var n int64
	sc.eachJitter(func(_ int, j time.Duration) {
		if j < sc.Duration {
			n += int64((sc.Duration - j + sc.Interval - 1) / sc.Interval)
		}
	})
	return n
}

// session returns one session's open-loop driver, a clock callback that
// issues the request due at next and re-arms itself for the one after:
// requests fire on the absolute virtual timeline (start + jitter +
// k·interval), so a slow response does not stretch the schedule — it
// overlaps the next tick, exactly the backlog behavior an open-loop
// generator exists to create. Every FrameEvery-th request is an
// interactive frame; the rest are background scene mutations, exercising
// both admission classes. The session calls done once the run's end or
// ctx stops it.
func (f *Fleet) session(ctx context.Context, idx int, next, end time.Time, rep *Reporter, done func()) func() {
	sc := f.Scenario
	tenant, session := sc.tenant(idx), sessionName(idx)
	k := 0
	var tick func()
	tick = func() {
		for ctx.Err() == nil {
			now := f.Clock.Now()
			if !now.Before(end) {
				break
			}
			if now.Before(next) {
				f.Clock.AfterFunc(next.Sub(now), tick)
				return
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
		done()
	}
	return tick
}
