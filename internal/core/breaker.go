package core

import (
	"fmt"
	"time"

	rthin "repro/internal/client"
	"repro/internal/compositor"
	"repro/internal/dataservice"
	"repro/internal/renderservice"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// BreakerHandle wraps a render handle with a per-peer circuit breaker:
// consecutive declines, errors or deadline overruns open the breaker,
// after which requests fail fast with a typed overload error instead of
// queueing behind a peer that has stopped answering. After the cooldown
// a single probe is let through; its outcome decides between closing
// the breaker and another cooldown. The distributor reads Available()
// (via dataservice.AvailabilityReporter) to plan around open breakers
// and to feed MigrationEngine.NeedRecruitment.
type BreakerHandle struct {
	inner dataservice.RenderHandle
	br    *rthin.Breaker
	clock vclock.Clock
}

// NewBreakerHandle wraps inner. The clock must be the deployment's
// session clock so cooldowns are deterministic under the virtual clock.
func NewBreakerHandle(inner dataservice.RenderHandle, cfg rthin.BreakerConfig, clock vclock.Clock) *BreakerHandle {
	if clock == nil {
		clock = vclock.Real{}
	}
	return &BreakerHandle{inner: inner, br: rthin.NewBreaker(cfg, clock), clock: clock}
}

// Breaker exposes the underlying state machine (chaos tests assert its
// transition log).
func (h *BreakerHandle) Breaker() *rthin.Breaker { return h.br }

// Available implements dataservice.AvailabilityReporter: false only
// while the breaker is open (half-open still admits the probe).
func (h *BreakerHandle) Available() bool { return h.br.State() != rthin.BreakerOpen }

// Name implements dataservice.RenderHandle.
func (h *BreakerHandle) Name() string { return h.inner.Name() }

// refused is the fast-fail error for a request the breaker blocked.
func (h *BreakerHandle) refused() error {
	return &renderservice.ErrOverloaded{Service: h.inner.Name(), Reason: "breaker-open"}
}

// observe classifies one exchange for the breaker. A result that
// arrives after its deadline counts as a failure even if it succeeded —
// otherwise a stalled peer's late replies would keep resetting the
// failure streak and the breaker would never open.
func (h *BreakerHandle) observe(err error, deadline time.Time) {
	late := !deadline.IsZero() && h.clock.Now().After(deadline)
	if err != nil || late {
		h.br.Failure()
		return
	}
	h.br.Success()
}

// Capacity implements dataservice.RenderHandle; interrogations are
// gated too, since they block on the same stalled socket.
func (h *BreakerHandle) Capacity() (transport.CapacityReport, error) {
	if !h.br.Allow() {
		return transport.CapacityReport{}, h.refused()
	}
	rep, err := h.inner.Capacity()
	h.observe(err, time.Time{})
	return rep, err
}

// Render implements dataservice.RenderHandle, gated by the breaker and
// bounded by the job's deadline: when that passes with the inner
// exchange still in flight (a stalled socket), the breaker records the
// failure and the caller gets a timeout error immediately — the failure
// streak builds while the peer is stalled, not after it recovers, so
// the breaker opens mid-stall and routing moves elsewhere. The abandoned
// exchange finishes on its own when the socket finally unblocks; its
// late result is discarded (and was already counted as the failure it
// is).
func (h *BreakerHandle) Render(job dataservice.RenderJob) (compositor.Tile, error) {
	if !h.br.Allow() {
		return compositor.Tile{}, h.refused()
	}
	var tile compositor.Tile
	var err error
	done := make(chan struct{})
	go func() {
		tile, err = h.inner.Render(job)
		close(done)
	}()
	var expired <-chan time.Time // nil never fires: an undeadlined job waits
	if !job.Deadline.IsZero() {
		expired = h.clock.After(max(job.Deadline.Sub(h.clock.Now()), 0))
	}
	select {
	case <-done:
		h.observe(err, job.Deadline)
		return tile, err
	case <-expired:
		h.br.Failure()
		return compositor.Tile{}, fmt.Errorf("core: %s render timed out past deadline", h.inner.Name())
	}
}

var _ dataservice.RenderHandle = (*BreakerHandle)(nil)
var _ dataservice.AvailabilityReporter = (*BreakerHandle)(nil)
