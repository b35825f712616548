// Package retry provides the capped-exponential-backoff policy the RAVE
// services use to survive transient failures: a render service whose
// subscription socket dies reconnects with backoff, and the data service
// retries UDDI recruitment while the registry is briefly unreachable.
// Delays run on a vclock.Clock, and jitter is derived deterministically
// from the clock reading, so recovery schedules replay exactly in the
// chaos suite's virtual time.
package retry

import (
	"context"
	"fmt"
	"time"

	"repro/internal/vclock"
)

// Policy configures retries.
type Policy struct {
	// MaxAttempts bounds total tries; 0 means retry forever (until the
	// context is done).
	MaxAttempts int
	// BaseDelay is the first backoff delay.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth.
	MaxDelay time.Duration
	// Multiplier scales the delay each attempt; defaults to 2.
	Multiplier float64
	// Jitter in [0, 1) spreads delays by up to that fraction, decided
	// deterministically from the clock reading.
	Jitter float64
}

// DefaultPolicy matches the services' recovery tempo: five attempts,
// 50 ms initial backoff doubling to a 2 s cap, 20% jitter.
func DefaultPolicy() Policy {
	return Policy{MaxAttempts: 5, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Multiplier: 2, Jitter: 0.2}
}

// splitmix64 hashes the clock reading into jitter bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Delay returns the backoff before attempt (1-based: the delay after the
// attempt-th failure). Jitter derives from seed, so a fixed seed gives a
// fixed schedule.
func (p Policy) Delay(attempt int, seed uint64) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	mult := p.Multiplier
	if mult <= 1 {
		mult = 2
	}
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= mult
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 && d > 0 {
		frac := float64(splitmix64(seed^uint64(attempt))>>11) / float64(1<<53)
		d *= 1 + p.Jitter*(2*frac-1)
	}
	return time.Duration(d)
}

// Sleep blocks for the attempt's backoff on the clock, returning early
// with the context's error if it is canceled first.
func (p Policy) Sleep(ctx context.Context, clock vclock.Clock, attempt int) error {
	if clock == nil {
		clock = vclock.Real{}
	}
	seed := uint64(clock.Now().UnixNano())
	d := p.Delay(attempt, seed)
	if d <= 0 {
		return ctx.Err()
	}
	select {
	case <-clock.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do runs fn until it succeeds, the policy's attempts are exhausted, or
// the context is done. The returned error wraps the last failure.
func Do(ctx context.Context, clock vclock.Clock, p Policy, fn func() error) error {
	return Until(ctx, clock, p, func() (bool, error) { return false, fn() })
}

// Until is Do for attempts that can get somewhere before they fail — a
// stream that bootstrapped and then dropped, say. An attempt reporting
// progress alongside its error starts the budget and the backoff over,
// so MaxAttempts bounds consecutive fruitless tries, not the lifetime
// of a long-lived connection. A policy without a BaseDelay means
// DefaultPolicy. Cancellation returns an error wrapping both ctx.Err()
// and the last failure.
func Until(ctx context.Context, clock vclock.Clock, p Policy, attempt func() (progressed bool, err error)) error {
	if p.BaseDelay <= 0 {
		p = DefaultPolicy()
	}
	var last error
	canceled := func(cause error, n int) error {
		if last == nil {
			return cause
		}
		return fmt.Errorf("retry: canceled after %d attempts: %w (last failure: %w)", n, cause, last)
	}
	for n := 1; ; n++ {
		if err := ctx.Err(); err != nil {
			return canceled(err, n-1)
		}
		progressed, err := attempt()
		if err == nil {
			return nil
		}
		last = err
		if progressed {
			n = 1
		}
		if p.MaxAttempts > 0 && n >= p.MaxAttempts {
			return fmt.Errorf("retry: gave up after %d attempts: %w", n, last)
		}
		if err := p.Sleep(ctx, clock, n); err != nil {
			return canceled(err, n)
		}
	}
}
