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
	// Apply applies the op that takes the copy from Version to Version+1;
	// a Stream calls it only once a copy exists.
	Apply(op scene.Op) error
	// SetCamera updates the session's shared camera.
	SetCamera(cam transport.CameraState) error
}

// maxHeld bounds the ops held ahead of a copy. In-order delivery holds
// none, a reordering fan-out one per concurrent committer, a follower
// awaiting a resync what the authority commits in one round trip; past
// this the op being waited for is not coming.
const maxHeld = 1024

// Sequencer applies a versioned op stream to a Target in version order,
// whatever order it arrives in:
//
//	stale  (version <= copy)      dropped
//	next   (version == copy + 1)  applied, then held successors drained
//	ahead  (version >  copy + 1)  held
//	before the bootstrap lands    held, whatever the version: the copy's
//	                              old version says nothing about the new
//	                              authority's numbering
//	install                       held ops the snapshot covers dropped,
//	                              the rest drained; only the bootstrap
//	                              may take the copy backwards
//
// Not safe for concurrent use.
type Sequencer struct {
	target Target
	based  bool // the bootstrap (Install or Resume) has landed
	// replayTo is the version a resume promised to replay through; until
	// the copy reaches it, a held op is early, not evidence of a loss.
	replayTo uint64
	held     map[uint64]scene.Op
}

// NewSequencer returns a Sequencer feeding target, awaiting its bootstrap.
func NewSequencer(target Target) *Sequencer {
	return &Sequencer{target: target, held: map[uint64]scene.Op{}}
}

// Offer hands the Sequencer the op that produced version.
func (q *Sequencer) Offer(version uint64, op scene.Op) error {
	if q.based {
		cur := q.target.Version()
		if version <= cur {
			return nil
		}
		if version == cur+1 {
			if err := q.target.Apply(op); err != nil {
				return err
			}
			return q.drain()
		}
	}
	if len(q.held) >= maxHeld {
		return fmt.Errorf("follow: %d ops held ahead of version %d", len(q.held), q.target.Version())
	}
	q.held[version] = op
	return nil
}

// Install makes sc the copy. The bootstrap snapshot installs
// unconditionally: it is the authority's answer to the hello even when
// it takes the copy backwards (a promoted standby that had not caught up
// with this follower). A later snapshot — a resync answer — older than
// the copy was overtaken by ops already applied, and is dropped rather
// than lose them.
func (q *Sequencer) Install(sc *scene.Scene) error {
	if q.based && sc.Version < q.target.Version() {
		return nil
	}
	if err := q.target.Install(sc); err != nil {
		return err
	}
	return q.Resume(sc.Version)
}

// Resume accepts the existing copy as the bootstrap: the authority will
// replay the ops the copy is missing, through version through.
func (q *Sequencer) Resume(through uint64) error {
	q.based, q.replayTo = true, through
	return q.drain()
}

// drain applies held ops for as long as they continue the copy, then
// forgets the ones it has passed.
func (q *Sequencer) drain() error {
	for len(q.held) > 0 {
		cur := q.target.Version()
		op, ok := q.held[cur+1]
		if !ok {
			for v := range q.held {
				if v <= cur {
					delete(q.held, v)
				}
			}
			break
		}
		delete(q.held, cur+1)
		if err := q.target.Apply(op); err != nil {
			return err
		}
	}
	return nil
}

// Gap reports a missing op: the copy has everything it was promised,
// yet ops beyond its next one are held.
func (q *Sequencer) Gap() bool {
	return q.based && len(q.held) > 0 && q.target.Version() >= q.replayTo
}

// Behind reports whether the copy trails an authority at version.
func (q *Sequencer) Behind(version uint64) bool { return version > q.target.Version() }

// ErrLost reports a stream that ended without an explicit Bye: the peer
// died, the link dropped or stalled past the idle timeout, or a frame
// arrived damaged. Over TCP a killed process still produces a bare EOF,
// so only Bye is a clean shutdown; everything else is a reconnect
// signal. The cause is wrapped alongside.
var ErrLost = errors.New("op stream lost without bye")

// Stream is the subscriber side of one data-service subscription socket
// (DESIGN.md "Op-stream follower" tabulates who sends what): hello with
// the copy's version, the bootstrap reply (snapshot, resume-ok or
// refusal), then versioned ops, camera updates, and one resync request
// per gap answered by a snapshot, until Bye. The authority does not order
// its fan-out behind a snapshot it has promised, so ops may overtake the
// bootstrap reply or a resync answer; the Sequencer holds them. Anything
// else on the socket belongs to the follower's role and goes to Hook.
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

	seq       *Sequencer
	since     uint64 // the version the hello advertised
	resyncing bool   // a resync request is unanswered
}

// Run follows the stream until it ends: nil after the authority's Bye,
// ctx.Err() once cancelled (checked between messages), an error wrapping
// ErrLost when the stream dies, and the Target's, Ready's or Hook's own
// error when one of them fails. bootstrapped reports whether the
// bootstrap reply landed, which is how a redial loop tells progress
// from a dead address.
func (s *Stream) Run(ctx context.Context) (bootstrapped bool, err error) {
	s.seq, s.since, s.resyncing = NewSequencer(s.Target), s.Target.Version(), false
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
		if err == nil && landed && !bootstrapped {
			bootstrapped = true
			if s.Ready != nil {
				err = s.Ready()
			}
		}
		if err == nil && !s.resyncing && s.seq.Gap() {
			err = s.resync()
		}
		if err != nil {
			return bootstrapped, err
		}
	}
}

// handle applies one message; landed reports a bootstrap reply or resync
// answer. Before the bootstrap reply only fan-out that overtook it is
// tolerated.
func (s *Stream) handle(t transport.MsgType, payload []byte, bootstrapped bool) (landed bool, err error) {
	switch t {
	case transport.MsgSceneSnapshot:
		sc, err := marshal.DecodeScene(payload)
		if err != nil {
			return false, err
		}
		s.resyncing = false
		return true, s.seq.Install(sc)
	case transport.MsgResumeOK:
		var ri transport.ResumeInfo
		if err := transport.DecodeJSON(payload, &ri); err != nil {
			return false, err
		}
		if s.since == 0 {
			return false, fmt.Errorf("follow: resume-ok for a follower that holds no copy")
		}
		return true, s.seq.Resume(ri.Version)
	case transport.MsgSceneOpVer:
		version, body, err := transport.UnpackVersioned(payload)
		if err != nil {
			return false, err
		}
		op, err := marshal.DecodeOp(body)
		if err != nil {
			return false, err
		}
		return false, s.seq.Offer(version, op)
	case transport.MsgCameraUpdate:
		var cam transport.CameraState
		if err := transport.DecodeJSON(payload, &cam); err != nil {
			return false, err
		}
		return false, s.Target.SetCamera(cam)
	case transport.MsgVersionReport:
		// The answer to a role's own MsgVersionQuery probe. Trailing it
		// with nothing held means the op stream went quiet after a lost
		// op; trailing it with a request unanswered means the request or
		// its answer was lost. Either way ask (again): on a faulty link
		// this is the only retry there is.
		var vr transport.VersionReport
		if err := transport.DecodeJSON(payload, &vr); err != nil {
			return false, err
		}
		if bootstrapped && s.seq.Behind(vr.Version) {
			return false, s.resync()
		}
		return false, nil
	}
	switch {
	case !bootstrapped:
		if err := s.Conn.Refused(t, payload); err != nil {
			return false, fmt.Errorf("follow: subscription of %q to %q: %w", s.Hello.Name, s.Hello.Session, err)
		}
		return false, fmt.Errorf("follow: expected snapshot or resume-ok, got %s", t)
	case t == transport.MsgSceneOp:
		// Interest-filtered streams skip ops by design and so carry no
		// versions: nothing to order, apply as it comes.
		op, err := marshal.DecodeOp(payload)
		if err != nil {
			return false, err
		}
		return false, s.Target.Apply(op)
	case s.Hook != nil:
		return false, s.Hook(t, payload)
	}
	return false, nil
}

// resync asks the authority for a fresh snapshot.
func (s *Stream) resync() error {
	s.resyncing = true
	return s.Conn.Send(transport.MsgResyncRequest, nil)
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
