// Package feed implements the data service's live-feed input (§3.1.1:
// "The data service imports data from either a static file or a live
// feed from an external program") and the bridged-simulation interaction
// the paper sketches in §5.2: "an example would be to exert a force on a
// molecule, which is displayed via RAVE but the molecule's behaviour is
// computed remotely via a third-party simulator; RAVE is used as the
// display and collaboration mechanism."
//
// A Source computes state externally and emits scene updates; Bridge
// pumps those updates into a data-service session on a clock, so every
// collaborator watches the simulation live, and user interactions
// (forces) travel back to the source.
package feed

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/scene"
	"repro/internal/vclock"
)

// Source is an external program producing scene updates per step.
type Source interface {
	// Attach installs the source's initial nodes into the session scene
	// via ops built with the allocator. It returns the ops to apply.
	Attach(alloc func() scene.NodeID) ([]scene.Op, error)
	// Step advances the external computation by dt and returns the scene
	// updates reflecting the new state.
	Step(dt time.Duration) ([]scene.Op, error)
}

// Session is the slice of the data service session the bridge needs;
// *dataservice.Session satisfies it.
type Session interface {
	AllocID() scene.NodeID
	ApplyUpdate(op scene.Op, origin string) error
}

// Bridge pumps a Source into a Session.
type Bridge struct {
	src  Source
	sess Session
	name string

	mu      sync.Mutex
	steps   int
	lastErr error
}

// NewBridge attaches the source to the session (applying its initial
// ops) and returns a bridge ready to Step.
func NewBridge(sess Session, src Source, name string) (*Bridge, error) {
	if sess == nil || src == nil {
		return nil, fmt.Errorf("feed: session and source required")
	}
	ops, err := src.Attach(sess.AllocID)
	if err != nil {
		return nil, fmt.Errorf("feed: attach: %w", err)
	}
	for _, op := range ops {
		if err := sess.ApplyUpdate(op, name); err != nil {
			return nil, fmt.Errorf("feed: install: %w", err)
		}
	}
	return &Bridge{src: src, sess: sess, name: name}, nil
}

// Retarget re-points the bridge at another session — the failover path:
// when a standby data service is promoted, live feeds re-attach to the
// promoted session (an exact replica of the one that died, at the same
// scene version with the same node IDs) and keep stepping without
// re-running Attach.
func (b *Bridge) Retarget(sess Session) error {
	if sess == nil {
		return fmt.Errorf("feed: retarget needs a session")
	}
	b.mu.Lock()
	b.sess = sess
	b.lastErr = nil
	b.mu.Unlock()
	return nil
}

// Step advances the simulation once and applies its updates.
func (b *Bridge) Step(dt time.Duration) error {
	b.mu.Lock()
	sess := b.sess
	b.mu.Unlock()
	err := b.stepInto(sess, dt)
	b.mu.Lock()
	defer b.mu.Unlock()
	if err != nil {
		b.lastErr = err
		return err
	}
	b.steps++
	return nil
}

func (b *Bridge) stepInto(sess Session, dt time.Duration) error {
	ops, err := b.src.Step(dt)
	if err != nil {
		return err
	}
	for _, op := range ops {
		if err := sess.ApplyUpdate(op, b.name); err != nil {
			return err
		}
	}
	return nil
}

// RunClock steps the simulation every period on clock until stop is
// closed; vclock.Real paces a live feed, a vclock.Virtual paces it
// deterministically in tests and replays. Errors stop the loop and are
// available via Err.
func (b *Bridge) RunClock(clock vclock.Clock, period time.Duration, stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		case <-clock.After(period):
			if err := b.Step(period); err != nil {
				return
			}
		}
	}
}

// Steps reports how many steps have been applied.
func (b *Bridge) Steps() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.steps
}

// Err reports the last feed error.
func (b *Bridge) Err() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastErr
}
