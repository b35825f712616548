package loadgen

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/gateway"
)

// Run drives the scenario to completion: one requester goroutine per
// session issues the open-loop schedule, while this goroutine sleeps on
// the clock to each scheduled fault and injects it. Run drives the clock
// (vclock's Drive), so time moves only when every requester and node is
// blocked, and nothing else may drive it meanwhile. Returns once every
// requester has drained; record of the run accumulates in rep.
func (f *Fleet) Run(ctx context.Context, rep *Reporter) {
	stopClock := f.Clock.Drive()
	defer stopClock()
	sc := f.Scenario
	start := f.Clock.Now()
	end := start.Add(sc.Duration)

	var wg sync.WaitGroup
	sc.eachJitter(func(idx int, jitter time.Duration) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.runSession(ctx, idx, jitter, end, rep)
		}()
	})
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()

	victimRegion := sc.victimRegion()
	partitioned, healed, sickened := false, false, false
	faults := []struct {
		at   time.Duration
		fire func(at time.Duration)
	}{
		{sc.KillNodeAt, func(at time.Duration) {
			// Kill the most-loaded node, telling nobody: the gateway
			// must discover the death from its own failed dispatches
			// and heal.
			victim := f.PickVictim()
			victim.Kill()
			rep.noteKill(victim.Name(), at)
		}},
		{sc.PartitionAt, func(at time.Duration) {
			// Cut the last region off mid-run. Unlike the node kill,
			// the topology event is visible control-plane state, so
			// the gateway is told — what it must get right is serving
			// every cut-region session from a surviving replica
			// without moving a bootstrap byte across the partition.
			cross, victim := f.bootstrapBytes(victimRegion)
			f.Topology.Partition(victimRegion)
			f.Gateway.TopologyChanged()
			rep.notePartition(victimRegion, at, cross, victim)
			partitioned = true
		}},
		{sc.SickDiskAt, func(at time.Duration) {
			// Poison the most-loaded node's disk, telling nobody: the
			// node stays alive and keeps serving frames, but its next
			// WAL commit fails and the gateway must evacuate.
			victim := f.PickVictim()
			f.plans[victim.Name()].SickNow()
			rep.noteSickDisk(victim.Name(), at)
			sickened = true
		}},
		{sc.HealAt, func(at time.Duration) {
			// Sample the accounting window before reconnecting:
			// post-heal catch-up traffic is legitimate.
			cross, victim := f.bootstrapBytes(victimRegion)
			f.Topology.Heal()
			f.Gateway.TopologyChanged()
			rep.noteHeal(at, cross, victim)
			healed = true
		}},
	}
	// Unset faults (at 0) go; the rest fire in time order.
	sort.SliceStable(faults, func(i, j int) bool { return faults[i].at < faults[j].at })
	for len(faults) > 0 && faults[0].at <= 0 {
		faults = faults[1:]
	}

	for {
		var wake <-chan time.Time // nil once nothing is left to wake for
		now := f.Clock.Now().Sub(start)
		switch sweep := time.Millisecond; { // the storage sweep's cadence
		case len(faults) > 0 && (!sickened || faults[0].at-now < sweep):
			wake = f.Clock.After(faults[0].at - now)
		case sickened:
			wake = f.Clock.After(sweep)
		}
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
		case <-wake:
		}
		if ctx.Err() != nil {
			// Cancelled: inject nothing more and wait for the
			// requesters, which see the same context, to drain.
			faults, sickened = nil, false
			continue
		}
		at := f.Clock.Now().Sub(start)
		for len(faults) > 0 && faults[0].at <= at {
			faults[0].fire(at)
			faults = faults[1:]
		}
		if sickened {
			// The control-loop sweep the gateway tier would run: drains
			// any session the dispatch path's own retries have not
			// already pushed off the sick disk. Cheap no-op once the
			// node is fully drained.
			f.Gateway.SyncStorageHealth()
		}
	}
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
