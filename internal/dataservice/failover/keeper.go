package failover

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dataservice"
	"repro/internal/uddi"
	"repro/internal/vclock"
)

// ErrLeaseLost means the keeper's renewal was rejected as stale: some
// other instance claimed the lease at a later epoch while we were gone.
// The holder must stand down immediately (demote its session to
// read-only) — continuing to accept writes would split the brain.
var ErrLeaseLost = errors.New("failover: lease lost to a newer epoch")

// DefaultMissedRenewals is how many renewal intervals fit in a lease
// TTL by default: the primary may miss N-1 heartbeats before the lease
// lapses and the standby may take over.
const DefaultMissedRenewals = 3

// Keeper is the primary side of the lease protocol: acquire once, then
// renew every Renew until cancelled or deposed.
type Keeper struct {
	Leases  LeaseAPI
	Clock   vclock.Clock
	Service string // logical lease name, e.g. "data:" + session
	Holder  string // this instance
	// Renew is the heartbeat interval; the lease's TTL is
	// DefaultMissedRenewals of them.
	Renew time.Duration

	mu    sync.Mutex
	lease uddi.Lease
}

// ttl is the lease TTL.
func (k *Keeper) ttl() time.Duration { return DefaultMissedRenewals * k.Renew }

// Acquire claims the lease (epoch rules per uddi.Registry.AcquireLease).
func (k *Keeper) Acquire() (uddi.Lease, error) {
	l, err := k.Leases.AcquireLease(k.Service, k.Holder, k.ttl(), k.Clock.Now())
	if err != nil {
		return uddi.Lease{}, err
	}
	k.mu.Lock()
	k.lease = l
	k.mu.Unlock()
	return l, nil
}

// Run renews the lease every Renew interval until ctx is cancelled
// (returns ctx.Err()) or the renewal is rejected as stale (returns
// ErrLeaseLost — the caller must demote). Transient registry errors are
// tolerated: the keeper keeps trying until the lease is actually lost.
func (k *Keeper) Run(ctx context.Context) error {
	if k.Renew <= 0 {
		return fmt.Errorf("failover: keeper needs a positive renew interval")
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-k.Clock.After(k.Renew):
		}
		k.mu.Lock()
		epoch := k.lease.Epoch
		k.mu.Unlock()
		l, err := k.Leases.RenewLease(k.Service, k.Holder, epoch, k.ttl(), k.Clock.Now())
		if err != nil {
			if errors.Is(err, uddi.ErrLeaseStale) {
				return fmt.Errorf("%w: %v", ErrLeaseLost, err)
			}
			// Registry unreachable: keep heartbeating; the lease decides.
			continue
		}
		k.mu.Lock()
		k.lease = l
		k.mu.Unlock()
	}
}

// Monitor is the standby side: poll the lease, and when it lapses —
// the primary missed enough renewals — claim it at the next epoch and
// promote the standby.
type Monitor struct {
	Leases  LeaseAPI
	Clock   vclock.Clock
	Service string // logical lease name (must match the Keeper's)
	Holder  string // this standby instance
	// Poll is the lease polling interval; the lease this monitor claims
	// lives DefaultMissedRenewals of them, the Keeper's rule.
	Poll time.Duration

	Standby *Standby
	// Handicap, when non-nil, returns how long this monitor must wait
	// after seeing the lease lapse before claiming it. With N standbys
	// racing for succession, a handicap proportional to each replica's
	// version deficit makes the most-caught-up copy claim first —
	// locality-blind lease racing decided by data, not luck. The lease
	// is re-checked after the wait; if a faster standby (or a recovered
	// primary) claimed meanwhile, this monitor stands down and keeps
	// watching.
	Handicap func() time.Duration
	// Abstain, when non-nil, is consulted before every claim attempt: a
	// true return sits this round of the succession race out (the
	// monitor keeps watching). Wired to a disk probe, it keeps a
	// standby whose own storage is sick from claiming a primaryship it
	// could never journal — a healthy rival takes the lease instead.
	Abstain func() bool
	// Reregister, when non-nil, republishes this instance's access
	// point in UDDI after promotion so re-discovering subscribers find
	// the new primary.
	Reregister func() error
}

// Promotion describes a completed failover.
type Promotion struct {
	// Lease is the newly claimed lease (epoch bumped past the primary's).
	Lease uddi.Lease
	// Session is the promoted, now-authoritative session.
	Session *dataservice.Session
	// Version is the op version the standby had applied at promotion.
	Version uint64
	// At is the virtual-clock promotion time.
	At time.Time
}

// Run polls until the lease lapses, then promotes. Returns the
// promotion record, or ctx.Err() when cancelled first. A lease that was
// never registered does not trigger promotion — there is no primary to
// succeed; the monitor keeps waiting.
func (m *Monitor) Run(ctx context.Context) (*Promotion, error) {
	if m.Poll <= 0 {
		return nil, fmt.Errorf("failover: monitor needs a positive poll interval")
	}
	ttl := DefaultMissedRenewals * m.Poll
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-m.Clock.After(m.Poll):
		}
		now := m.Clock.Now()
		lease, live, err := m.Leases.GetLease(m.Service, now)
		if err != nil || live || lease.Service == "" {
			// Unreachable registry, a live primary, or no primary yet:
			// nothing to succeed.
			continue
		}
		if lease.Holder == m.Holder {
			// Our own stale registration (e.g. restarted standby).
			continue
		}
		if m.Abstain != nil && m.Abstain() {
			// This standby's own storage is sick (or it is otherwise
			// unfit): sit the race out and let a healthy rival claim.
			continue
		}
		if m.Handicap != nil {
			if d := m.Handicap(); d > 0 {
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-m.Clock.After(d):
				}
				// Re-check after the wait: a less-handicapped standby
				// (or the primary itself) may have claimed meanwhile.
				now = m.Clock.Now()
				lease, live, err = m.Leases.GetLease(m.Service, now)
				if err != nil || live || lease.Service == "" || lease.Holder == m.Holder {
					continue
				}
			}
		}
		claimed, err := m.Leases.AcquireLease(m.Service, m.Holder, ttl, now)
		if err != nil {
			// Raced a primary renewal or another standby; keep watching.
			continue
		}
		sess, err := m.Standby.Promote()
		if err != nil {
			return nil, err
		}
		if m.Reregister != nil {
			if err := m.Reregister(); err != nil {
				return nil, fmt.Errorf("failover: re-register after promotion: %w", err)
			}
		}
		return &Promotion{Lease: claimed, Session: sess, Version: m.Standby.Applied(), At: m.Clock.Now()}, nil
	}
}
