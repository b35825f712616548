// Package admission is the one admission gate of the system: a bounded
// two-class work queue with utilization-aware load shedding and
// per-tenant fair sharing. The paper's services react to overload at
// migration timescale (§3.2.7, streaks of low-FPS load reports);
// admission control is the fast path that keeps an overloaded service
// *responsive while overloaded* — excess work is refused in microseconds
// with a typed *transport.Decline carrying a retry-after hint, instead
// of queueing unboundedly until every caller times out.
//
// Both tiers use the same Gate. A render service admits every call
// under one tenant, so its fair share equals the class limit and only
// the queue bound binds; the gateway registers a tenant per session
// owner, so a contended gate also splits the class limit between them.
package admission

import (
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Decline reasons carried by *transport.Decline and the MsgDeclined
// payload, in the order Admit checks them.
const (
	// ReasonExpired: the request's deadline had already passed on
	// arrival — the work was cancelled, not done-and-discarded.
	ReasonExpired = "expired"
	// ReasonDeadline: the deadline is ahead of now but behind the
	// estimated completion time given the current queue, so starting
	// the work would only produce a result nobody will use.
	ReasonDeadline = "deadline"
	// ReasonQueueFull: the bounded queue is at its class limit (the
	// whole depth for interactive work, half of it for background).
	ReasonQueueFull = "queue-full"
	// ReasonTenantShare: the gate is contended and this tenant is
	// already at its fair share of the class limit.
	ReasonTenantShare = "tenant-share"
)

// Gate is a bounded two-class queue. inflight counts admitted calls
// that have not released yet; est is an EWMA of recent per-call
// duration, used for the retry-after hint and the deadline feasibility
// check.
type Gate struct {
	service string
	depth   int
	idle    time.Duration
	clock   vclock.Clock
	metrics *telemetry.Registry

	mu       sync.Mutex
	inflight int
	est      time.Duration
	admitted int
	shed     int
	tenants  map[string]int // tenant → its admitted, unreleased calls
}

// New creates a gate admitting at most depth concurrent calls for
// service. idleEstimate stands in for the per-call EWMA in retry-after
// hints until the first call has released. The gate's series go to
// metrics under service.
func New(service string, depth int, idleEstimate time.Duration, clock vclock.Clock, metrics *telemetry.Registry) *Gate {
	return &Gate{
		service: service,
		depth:   depth,
		idle:    idleEstimate,
		clock:   clock,
		metrics: metrics,
		tenants: map[string]int{},
	}
}

// Register makes a tenant part of the fair share (idempotent), so the
// share reflects who is present rather than who has called lately.
func (g *Gate) Register(tenant string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.registerLocked(tenant)
}

func (g *Gate) registerLocked(tenant string) {
	if _, ok := g.tenants[tenant]; !ok {
		g.tenants[tenant] = 0
		g.metrics.Gauge(g.service, "admission_tenants", "").Set(int64(len(g.tenants)))
	}
}

// Stats reports how many calls the gate admitted and shed so far.
func (g *Gate) Stats() (admitted, shed int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.admitted, g.shed
}

// Admit gates one call. Interactive calls may fill the whole queue,
// background calls only half of it; a non-zero deadline is checked for
// feasibility first. While the gate is contended (at least half full) a
// tenant is capped at its share of the class limit; an idle gate lets
// any tenant use spare capacity (work conservation). On success the
// returned release must be called with the call's duration; calling it
// again is a no-op.
func (g *Gate) Admit(tenant string, interactive bool, deadline time.Time) (release func(time.Duration), err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if !deadline.IsZero() {
		now := g.clock.Now()
		if !now.Before(deadline) {
			return nil, g.declineLocked(ReasonExpired, 0)
		}
		if g.est > 0 && now.Add(g.est*time.Duration(g.inflight+1)).After(deadline) {
			return nil, g.declineLocked(ReasonDeadline, 0)
		}
	}
	limit := g.depth
	if !interactive {
		limit = max(g.depth/2, 1)
	}
	if g.inflight >= limit {
		return nil, g.declineLocked(ReasonQueueFull, g.retryAfterLocked())
	}
	g.registerLocked(tenant)
	if contended := g.inflight*2 >= g.depth; contended && g.tenants[tenant] >= max(limit/len(g.tenants), 1) {
		return nil, g.declineLocked(ReasonTenantShare, g.retryAfterLocked())
	}
	g.inflight++
	g.tenants[tenant]++
	g.admitted++
	g.metrics.Counter(g.service, "admission_admitted_total", "").Inc()
	g.metrics.Gauge(g.service, "admission_inflight", "").Set(int64(g.inflight))
	var once sync.Once
	return func(dt time.Duration) {
		once.Do(func() { g.release(tenant, dt) })
	}, nil
}

// Decline refuses an admitted call for a reason found after admission
// (the gateway's node-slot capacity), counted and hinted like the
// gate's own declines.
func (g *Gate) Decline(reason string) *transport.Decline {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.declineLocked(reason, g.retryAfterLocked())
}

// declineLocked counts one shed call and builds its refusal. Callers
// hold g.mu.
func (g *Gate) declineLocked(reason string, retryAfter time.Duration) *transport.Decline {
	g.shed++
	//lint:allow metriclabel: reason is a Reason* constant here or a caller's constant (gateway.ReasonCapacity)
	g.metrics.Counter(g.service, "admission_declined_total", reason).Inc()
	return &transport.Decline{Service: g.service, Reason: reason, RetryAfter: retryAfter}
}

// retryAfterLocked estimates when queued work will have drained: the
// per-call EWMA times the queue length, falling back to the idle
// estimate before any call has released. Callers hold g.mu.
func (g *Gate) retryAfterLocked() time.Duration {
	est := g.est
	if est <= 0 {
		est = g.idle
	}
	return est * time.Duration(g.inflight)
}

// release returns one admitted call's slot and folds its duration into
// the completion-time estimate (EWMA, 1/4 weight on the newest sample,
// so one anomalous call cannot swing feasibility checks).
func (g *Gate) release(tenant string, dt time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inflight--
	g.tenants[tenant]--
	if dt > 0 {
		if g.est <= 0 {
			g.est = dt
		} else {
			g.est = (3*g.est + dt) / 4
		}
	}
	g.metrics.Gauge(g.service, "admission_inflight", "").Set(int64(g.inflight))
	g.metrics.Gauge(g.service, "admission_ewma_ns", "").Set(int64(g.est))
}
