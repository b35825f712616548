// Package follow keeps a copy of a data-service session current from
// the session's op stream (§3.1: the data service pushes every update to
// the copies that render from it; §6: data servers mirror each other).
// The render service's replica, the hot standby and the in-process
// mirror are all this package behind a four-method Target: Sequencer is
// the version rule, Stream the subscriber side of the socket protocol
// (dataservice.Service.ServeConn is the serving side), Redial the loop
// that keeps a Stream alive across connections.
package follow

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/marshal"
	"repro/internal/retry"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Target is the copy a follower keeps current.
type Target interface {
	// Version returns the copy's scene version; 0 when no copy exists yet.
	Version() uint64
	// Install replaces the copy with a snapshot from the authority.
	Install(sc *scene.Scene) error
	// Apply applies the op that takes the copy from Version to Version+1.
	Apply(op scene.Op) error
	// SetCamera updates the session's shared camera.
	SetCamera(cam transport.CameraState) error
	// A Stream calls Apply and SetCamera only once a copy exists.
}

// Sequencer applies an authority's op stream to a Target. The authority
// sends each follower its bootstrap reply, then the ops after it, in
// commit order, so an op out of turn means one was lost, and the stream
// with it. A skip record, an op outside the copy's interest, is offered
// as a scene.SkipOp and obeys the same rules:
//
//	before the bootstrap         ErrLost
//	stale  (version <= copy)     dropped
//	next   (version == copy + 1) applied
//	ahead  (version >  copy + 1) ErrLost: a redial resumes at the copy
//
// The bootstrap reply installs unconditionally. Not safe for concurrent
// use.
type Sequencer struct {
	target Target
	based  bool // the bootstrap (Install or Resume) has landed
}

// NewSequencer returns a Sequencer feeding target, awaiting its bootstrap.
func NewSequencer(target Target) *Sequencer { return &Sequencer{target: target} }

// Offer hands the Sequencer the op that produced version.
func (q *Sequencer) Offer(version uint64, op scene.Op) error {
	if !q.based {
		return fmt.Errorf("%w: the op for version %d came before the bootstrap reply", ErrLost, version)
	}
	cur := q.target.Version()
	switch {
	case version <= cur:
		return nil
	case version == cur+1:
		return q.target.Apply(op)
	}
	return fmt.Errorf("%w: the op for version %d came to a copy at %d", ErrLost, version, cur)
}

// Install makes the bootstrap snapshot sc the copy, unconditionally: it
// is the authority's answer to the hello even when it takes the copy
// backwards (a promoted standby that had not caught up with this
// follower).
func (q *Sequencer) Install(sc *scene.Scene) error {
	if err := q.target.Install(sc); err != nil {
		return err
	}
	q.based = true
	return nil
}

// Resume accepts the existing copy as the bootstrap: the authority
// replays the ops the copy is missing next.
func (q *Sequencer) Resume() { q.based = true }

// ErrLost reports a stream that ended without an explicit Bye: the peer
// died or cut the stream at a delivery it failed, the link dropped or
// stalled past the idle timeout, a frame arrived damaged, or an op showed
// one lost. Over TCP a killed process still produces a bare EOF, so only
// Bye is a clean shutdown; everything else is a reconnect signal. The
// cause is wrapped alongside.
var ErrLost = errors.New("op stream lost without bye")

// Stream is the subscriber side of one data-service subscription socket
// (DESIGN.md "Op-stream follower" tabulates who sends what): hello with
// the copy's version, the bootstrap reply (snapshot, resume-ok or
// refusal), then versioned ops and skip records and camera updates,
// until Bye. The authority writes all of it in commit order and closes
// the socket at the first delivery it fails, so nothing overtakes the
// bootstrap reply and a lost op is a closed stream; an op ahead of the
// copy ends the stream as ErrLost too, for a redial to resume at the
// copy. A bare op, which only a subscriber sends, ends it with an error.
// Anything else on the socket belongs to the follower's role and goes to
// Hook.
type Stream struct {
	Conn *transport.Conn
	// Hello opens the subscription; Run fills in SinceVersion.
	Hello  transport.Hello
	Target Target
	// IdleTimeout, when non-zero and the stream supports read deadlines,
	// declares the stream lost when no message arrives within it — the
	// bootstrap reply included.
	IdleTimeout time.Duration
	Clock       vclock.Clock // times the idle watchdog; nil means vclock.Real
	// Ready, when set, runs once the bootstrap reply has landed, before
	// any later message is read.
	Ready func() error
	// Hook, when set, receives every message the follower protocol does
	// not own (capacity and telemetry queries, ...).
	Hook func(t transport.MsgType, payload []byte) error

	seq   *Sequencer
	since uint64 // the version the hello advertised
}

// Run follows the stream until it ends: nil after the authority's Bye,
// ctx.Err() once cancelled (checked between messages), an error wrapping
// ErrLost when the stream dies, and the Target's, Ready's or Hook's own
// error when one of them fails. bootstrapped reports whether the
// bootstrap reply landed, which is how a redial loop tells progress
// from a dead address.
func (s *Stream) Run(ctx context.Context) (bootstrapped bool, err error) {
	s.seq, s.since = NewSequencer(s.Target), s.Target.Version()
	hello := s.Hello
	hello.SinceVersion = s.since
	if err := s.Conn.SendJSON(transport.MsgHello, hello); err != nil {
		return false, err
	}
	clock := s.Clock
	if clock == nil {
		clock = vclock.Real{}
	}
	canDeadline := s.IdleTimeout > 0
	for {
		if err := ctx.Err(); err != nil {
			return bootstrapped, err
		}
		if canDeadline && s.Conn.SetReadDeadline(clock.Now().Add(s.IdleTimeout)) != nil {
			canDeadline = false // plain pipes cannot time out
		}
		t, payload, err := s.Conn.Receive()
		if err == io.EOF {
			return bootstrapped, fmt.Errorf("%w: stream closed", ErrLost)
		}
		if err != nil {
			return bootstrapped, fmt.Errorf("%w: %w", ErrLost, err)
		}
		if t == transport.MsgBye {
			return bootstrapped, nil
		}
		landed, err := s.handle(t, payload, bootstrapped)
		if err == nil && landed {
			bootstrapped = true
			if s.Ready != nil {
				err = s.Ready()
			}
		}
		if err != nil {
			return bootstrapped, err
		}
	}
}

// handle applies one message; landed reports the bootstrap reply, which
// comes once and first: the authority sends nothing before it, and no
// snapshot or resume-ok after it.
func (s *Stream) handle(t transport.MsgType, payload []byte, bootstrapped bool) (landed bool, err error) {
	if bootstrapped && (t == transport.MsgSceneSnapshot || t == transport.MsgResumeOK) {
		return false, fmt.Errorf("follow: %s after the bootstrap reply", t)
	}
	switch t {
	case transport.MsgSceneSnapshot:
		sc, err := marshal.DecodeScene(payload)
		if err != nil {
			return false, err
		}
		return true, s.seq.Install(sc)
	case transport.MsgResumeOK:
		var ri transport.ResumeInfo
		if err := transport.DecodeJSON(payload, &ri); err != nil {
			return false, err
		}
		if s.since == 0 {
			return false, fmt.Errorf("follow: resume-ok for a follower that holds no copy")
		}
		s.seq.Resume()
		return true, nil
	case transport.MsgSceneOpVer:
		version, body, err := transport.UnpackVersioned(payload)
		if err != nil {
			return false, err
		}
		var op scene.Op = scene.SkipOp{} // an empty body is a skip record
		if len(body) > 0 {
			if op, err = marshal.DecodeOp(body); err != nil {
				return false, err
			}
		}
		return false, s.seq.Offer(version, op)
	}
	if !bootstrapped {
		if err := s.Conn.Refused(t, payload); err != nil {
			return false, fmt.Errorf("follow: subscription of %q to %q: %w", s.Hello.Name, s.Hello.Session, err)
		}
		return false, fmt.Errorf("follow: expected snapshot or resume-ok, got %s", t)
	}
	switch {
	case t == transport.MsgCameraUpdate:
		var cam transport.CameraState
		if err := transport.DecodeJSON(payload, &cam); err != nil {
			return false, err
		}
		return false, s.Target.SetCamera(cam)
	case t.Submitted():
		return false, fmt.Errorf("follow: %s from the authority, which versions every op it sends", t)
	case s.Hook != nil:
		return false, s.Hook(t, payload)
	}
	return false, nil
}

// Redial keeps a followed stream alive: dial, run, and when run fails
// back off per policy (retry.Until) and dial again. It ends when run
// returns nil (the authority said Bye), when ctx is cancelled, or when
// policy.MaxAttempts consecutive attempts fail without bootstrapping; an
// attempt that bootstrapped before it failed starts the budget and the
// backoff over. Each stream is closed before the next dial.
func Redial(ctx context.Context, clock vclock.Clock, policy retry.Policy, dial transport.Dialer, run func(io.ReadWriter) (bootstrapped bool, err error)) error {
	return retry.Until(ctx, clock, policy, func() (bool, error) {
		rw, err := dial()
		if err != nil {
			return false, err
		}
		defer rw.Close()
		return run(rw)
	})
}
