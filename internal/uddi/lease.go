package uddi

import (
	"errors"
	"fmt"
	"time"
)

// Leases: the registry's high-availability primitive. A primary data
// service holds a named lease and renews it on every heartbeat; a hot
// standby polls the lease and may claim it only after it lapses. Each
// successful claim bumps the lease epoch — the registration epoch — and
// every renewal must present the current epoch, so a deposed primary
// that wakes up after a network partition cannot renew itself back into
// authority (split-brain avoidance): its stale epoch is rejected and it
// must stand down.
//
// The registry itself is a passive store with no clock of its own
// (matching the paper's jUDDI role); callers pass their own notion of
// now, which in this codebase always comes from a vclock.Clock.

// Lease is one named lease row.
type Lease struct {
	// Service is the logical name being leased, e.g. "data:skull".
	Service string `json:"service"`
	// Holder names the instance holding the lease.
	Holder string `json:"holder"`
	// Epoch is the registration epoch, bumped on every takeover.
	Epoch uint64 `json:"epoch"`
	// Expires is when the lease lapses unless renewed.
	Expires time.Time `json:"expires"`
}

// Leases is the lease surface: a holder defends its own lease (acquire,
// renew, get) and the gateway, the fleet's authority, moves ownership
// (transfer). *Registry serves it in process and *Proxy over SOAP.
type Leases interface {
	AcquireLease(service, holder string, ttl time.Duration, now time.Time) (Lease, error)
	RenewLease(service, holder string, epoch uint64, ttl time.Duration, now time.Time) (Lease, error)
	TransferLease(service, holder string, ttl time.Duration, now time.Time) (Lease, error)
	GetLease(service string, now time.Time) (Lease, bool, error)
}

// Lease errors. ErrLeaseHeld means an acquire raced a live holder;
// ErrLeaseStale means a renew presented a deposed holder or epoch.
var (
	ErrLeaseHeld  = errors.New("uddi: lease held by a live holder")
	ErrLeaseStale = errors.New("uddi: lease holder or epoch is stale")
)

// AcquireLease claims the named lease. It succeeds when the lease is
// unclaimed, expired, or already held by this holder; the epoch is
// bumped on every change of holder so the previous holder's renewals
// become stale. A live lease held by someone else fails with
// ErrLeaseHeld.
func (r *Registry) AcquireLease(service, holder string, ttl time.Duration, now time.Time) (Lease, error) {
	if service == "" || holder == "" {
		return Lease{}, fmt.Errorf("uddi: lease service and holder required")
	}
	if ttl <= 0 {
		return Lease{}, fmt.Errorf("uddi: lease ttl must be positive")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.leases[service]
	switch {
	case !ok:
		cur = Lease{Service: service, Holder: holder, Epoch: 1}
	case cur.Holder == holder:
		// Re-acquire by the current holder keeps its epoch.
	case now.Before(cur.Expires):
		return Lease{}, fmt.Errorf("%w: %q holds %q (epoch %d) until %v",
			ErrLeaseHeld, cur.Holder, service, cur.Epoch, cur.Expires)
	default:
		// Takeover of a lapsed lease: new holder, next epoch.
		cur.Holder = holder
		cur.Epoch++
	}
	cur.Expires = now.Add(ttl)
	r.leases[service] = cur
	return cur, nil
}

// RenewLease extends the lease iff holder and epoch match the current
// registration; anything else fails with ErrLeaseStale and the caller
// must stand down. Renewing an expired-but-unclaimed lease succeeds —
// expiry only opens a takeover window, it does not by itself depose.
func (r *Registry) RenewLease(service, holder string, epoch uint64, ttl time.Duration, now time.Time) (Lease, error) {
	if ttl <= 0 {
		return Lease{}, fmt.Errorf("uddi: lease ttl must be positive")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.leases[service]
	if !ok || cur.Holder != holder || cur.Epoch != epoch {
		return Lease{}, fmt.Errorf("%w: renew %q as %q epoch %d", ErrLeaseStale, service, holder, epoch)
	}
	cur.Expires = now.Add(ttl)
	r.leases[service] = cur
	return cur, nil
}

// TransferLease reassigns the named lease to a new holder at the next
// epoch — the control-plane counterpart of a standby's AcquireLease
// takeover. Where AcquireLease lets a successor claim only a *lapsed*
// lease (data-plane failover: nobody is in charge, first claimant
// wins), TransferLease is invoked by an authority that already decided
// ownership — the gateway tier rebalancing sessions on membership
// change — so it moves even a live lease. Every change of holder bumps
// the epoch, so the deposed holder's renewals and epoch-stamped
// dispatches turn stale the instant the transfer commits; a transfer to
// the current holder is just a renewal and keeps its epoch. Epochs are
// therefore monotonic across any interleaving of transfers, takeovers
// and renewals.
func (r *Registry) TransferLease(service, holder string, ttl time.Duration, now time.Time) (Lease, error) {
	if service == "" || holder == "" {
		return Lease{}, fmt.Errorf("uddi: lease service and holder required")
	}
	if ttl <= 0 {
		return Lease{}, fmt.Errorf("uddi: lease ttl must be positive")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.leases[service]
	switch {
	case !ok:
		cur = Lease{Service: service, Holder: holder, Epoch: 1}
	case cur.Holder == holder:
		// Transfer to the incumbent: renewal, same epoch.
	default:
		cur.Holder = holder
		cur.Epoch++
	}
	cur.Expires = now.Add(ttl)
	r.leases[service] = cur
	return cur, nil
}

// GetLease returns the named lease and whether it is currently live
// (registered and unexpired at now). An expired lease is still
// returned — standbys need its epoch to claim the succession.
func (r *Registry) GetLease(service string, now time.Time) (Lease, bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.leases[service]
	if !ok {
		return Lease{}, false, nil
	}
	return cur, now.Before(cur.Expires), nil
}

// ReleaseLease drops the lease iff holder and epoch match (clean
// shutdown of a primary, letting the standby take over immediately).
func (r *Registry) ReleaseLease(service, holder string, epoch uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.leases[service]
	if !ok || cur.Holder != holder || cur.Epoch != epoch {
		return fmt.Errorf("%w: release %q as %q epoch %d", ErrLeaseStale, service, holder, epoch)
	}
	delete(r.leases, service)
	return nil
}
