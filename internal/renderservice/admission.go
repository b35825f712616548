// Admission control for the render service: a bounded render-work
// queue with utilization-aware load shedding. The paper's services react
// to overload at migration timescale (§3.2.7, streaks of low-FPS load
// reports); admission control is the fast path that keeps an overloaded
// service *responsive while overloaded* — excess work is refused in
// microseconds with a typed ErrOverloaded carrying a retry-after hint,
// instead of queueing unboundedly behind the session mutex until every
// caller times out. Interactive frame requests (a user waiting at a thin
// client) may use the whole queue; background work (tile and subset
// assists for peers, which have hedging and degraded-assembly fallbacks
// of their own) is capped at half of it, so assists can never starve the
// service's own viewers.
package renderservice

import (
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
)

// DefaultQueueDepth bounds concurrently admitted render calls when
// Config.QueueDepth is zero.
const DefaultQueueDepth = 8

// Decline reasons carried by ErrOverloaded and the MsgDeclined payload.
const (
	// ReasonQueueFull: the bounded render queue is at capacity.
	ReasonQueueFull = "queue-full"
	// ReasonExpired: the request's deadline had already passed on
	// arrival — the work was cancelled, not rendered-and-discarded.
	ReasonExpired = "expired"
	// ReasonDeadline: the deadline is ahead of now but behind the
	// estimated completion time given the current queue, so starting
	// the render would only produce a frame nobody will display.
	ReasonDeadline = "deadline"
)

// ErrOverloaded is the admission gate's typed refusal: transport.Decline,
// which is also how it crosses a socket (MsgDeclined) and comes back.
type ErrOverloaded = transport.Decline

// admission is the bounded render-work queue. inflight counts admitted
// render calls that have not released yet; est is an EWMA of recent
// per-call device time, used for the retry-after hint and the deadline
// feasibility check.
type admission struct {
	mu       sync.Mutex
	depth    int
	inflight int
	est      time.Duration
	admitted int
	shed     int

	// metrics/service mirror the gate's state into the telemetry
	// registry (set by New; nil-safe like all series handles).
	metrics *telemetry.Registry
	service string
}

// observeLocked mirrors the gate's state into telemetry. Callers hold
// a.mu.
func (a *admission) observeLocked() {
	a.metrics.Gauge(a.service, "admission_queue_depth", "").Set(int64(a.inflight))
	a.metrics.Gauge(a.service, "admission_ewma_ns", "").Set(int64(a.est))
}

// AdmissionStats reports how many render calls the gate admitted and
// shed since the service started (for load experiments and tests).
func (s *Service) AdmissionStats() (admitted, shed int) {
	s.adm.mu.Lock()
	defer s.adm.mu.Unlock()
	return s.adm.admitted, s.adm.shed
}

// admit applies the admission gate to one render call. Interactive
// calls (thin-client frames) may fill the whole queue; background calls
// (tile/subset assists) only half of it. A non-zero deadline is checked
// for feasibility: already-expired work and work the queue cannot
// complete in time are declined without rendering. On success the
// returned release must be called exactly once with the call's modeled
// device time.
func (s *Service) admit(interactive bool, deadline time.Time) (release func(time.Duration), err error) {
	a := &s.adm
	a.mu.Lock()
	defer a.mu.Unlock()
	if !deadline.IsZero() {
		now := s.cfg.Clock.Now()
		if !now.Before(deadline) {
			a.shed++
			a.metrics.Counter(a.service, "admission_declined_total", ReasonExpired).Inc()
			return nil, &ErrOverloaded{Service: s.cfg.Name, Reason: ReasonExpired}
		}
		if a.est > 0 && now.Add(a.est*time.Duration(a.inflight+1)).After(deadline) {
			a.shed++
			a.metrics.Counter(a.service, "admission_declined_total", ReasonDeadline).Inc()
			return nil, &ErrOverloaded{Service: s.cfg.Name, Reason: ReasonDeadline}
		}
	}
	limit := a.depth
	if !interactive {
		limit = a.depth / 2
		if limit < 1 {
			limit = 1
		}
	}
	if a.inflight >= limit {
		a.shed++
		a.metrics.Counter(a.service, "admission_declined_total", ReasonQueueFull).Inc()
		return nil, &ErrOverloaded{
			Service:    s.cfg.Name,
			Reason:     ReasonQueueFull,
			RetryAfter: s.retryAfterLocked(),
		}
	}
	a.inflight++
	a.admitted++
	a.metrics.Counter(a.service, "admission_admitted_total", "").Inc()
	a.observeLocked()
	return s.releaseOne, nil
}

// retryAfterLocked estimates when queued work will have drained: the
// per-call EWMA times the queue length, falling back to one target-FPS
// frame budget before any call has completed. Callers hold a.mu.
func (s *Service) retryAfterLocked() time.Duration {
	a := &s.adm
	est := a.est
	if est <= 0 {
		est = time.Second / targetFPS
	}
	return est * time.Duration(a.inflight)
}

// releaseOne returns one admitted call's slot and folds its device time
// into the completion-time estimate (EWMA, 1/4 weight on the newest
// sample, so one anomalous frame cannot swing feasibility checks).
func (s *Service) releaseOne(dt time.Duration) {
	a := &s.adm
	a.mu.Lock()
	defer a.mu.Unlock()
	a.inflight--
	if dt > 0 {
		if a.est <= 0 {
			a.est = dt
		} else {
			a.est = (3*a.est + dt) / 4
		}
	}
	a.observeLocked()
}
