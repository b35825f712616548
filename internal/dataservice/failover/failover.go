// Package failover makes the data service highly available: a primary
// holds a UDDI-registered lease and renews it on the virtual clock
// (Keeper); a hot standby follows the primary's op stream into a
// read-only session of its own data service, acknowledging what it has
// applied (Standby — the stream itself is internal/follow); and a
// Monitor on the standby side watches the lease, promoting the standby —
// claim the lease at the next epoch, lift the read-only guard,
// re-register the access point — once the primary misses enough
// renewals for the lease to lapse. The registration epoch is the
// split-brain guard: a deposed primary that comes back finds its
// renewals rejected as stale and must stand down.
package failover

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/dataservice"
	"repro/internal/follow"
	"repro/internal/scene"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// ErrReplicationLost means the stream from the primary died without a
// clean Bye — the standby keeps its replica and waits for the Monitor
// to decide whether a failover is due.
var ErrReplicationLost = follow.ErrLost

// ErrPromoted reports that the standby was promoted mid-stream and has
// stopped following the (now deposed) primary.
var ErrPromoted = errors.New("failover: standby promoted")

// Standby follows a primary session's op stream into a session on its
// own data service, which therefore can serve read-only bootstrap
// snapshots to subscribers and take over authoritatively on promotion.
type Standby struct {
	// Service is the standby's own data service.
	Service *dataservice.Service
	// SessionName is the replicated session.
	SessionName string
	// Name identifies this standby instance (subscriber + ack name).
	Name string
	// Region is the standby's locality ("region" or "region/zone"),
	// advertised in the replication hello so the primary classifies the
	// bootstrap snapshot as local or cross-region traffic. Empty means
	// local.
	Region string
	// IdleTimeout, when non-zero and the stream supports read
	// deadlines, bounds how long Run blocks without traffic before
	// failing with ErrReplicationLost.
	IdleTimeout time.Duration
	// Clock drives the idle watchdog (defaults to vclock.Real).
	Clock vclock.Clock

	mu       sync.Mutex
	sess     *dataservice.Session
	promoted bool
}

// Session returns the standby's replica session (nil before the first
// bootstrap).
func (st *Standby) Session() *dataservice.Session {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.sess
}

// Applied returns the highest op version the standby has applied.
func (st *Standby) Applied() uint64 {
	if sess := st.Session(); sess != nil {
		return sess.Version()
	}
	return 0
}

// Promoted reports whether the standby has been promoted.
func (st *Standby) Promoted() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.promoted
}

// Promote lifts the read-only guard and detaches the standby from its
// primary: any replication stream still running returns ErrPromoted.
// The session keeps its name, scene and exact version.
func (st *Standby) Promote() (*dataservice.Session, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.promoted {
		return nil, fmt.Errorf("failover: standby %q already promoted", st.Name)
	}
	if st.sess == nil {
		return nil, fmt.Errorf("failover: standby %q has no replica to promote", st.Name)
	}
	st.promoted = true
	st.sess.SetReadOnly(false)
	return st.sess, nil
}

// Run follows the primary at rw (follow.Stream): hello (resuming at the
// last applied version when a replica exists), bootstrap, then the
// versioned op stream, acknowledging each applied version with
// MsgStandbyAck. It returns ErrPromoted after a promotion, an error
// wrapping ErrReplicationLost when the stream dies, and ctx.Err() when
// cancelled. Safe to call again with a fresh stream after a reconnect —
// the replica is retained and resumed.
func (st *Standby) Run(ctx context.Context, rw io.ReadWriter) error {
	conn := transport.NewConn(rw)
	stream := &follow.Stream{
		Conn:        conn,
		Hello:       transport.Hello{Role: "standby", Name: st.Name, Session: st.SessionName, Region: st.Region},
		Target:      ackingReplica{st, conn},
		IdleTimeout: st.IdleTimeout,
		Clock:       st.Clock,
	}
	_, err := stream.Run(ctx)
	if err != nil && st.Promoted() {
		return ErrPromoted
	}
	return err
}

// ackingReplica is the follow.Target of one replication stream: the
// standby's read-only session, acknowledging on conn what it applies.
type ackingReplica struct {
	st   *Standby
	conn *transport.Conn
}

// session returns the replica for a write from the primary — nil when
// none exists and create is false — or ErrPromoted: a promoted standby
// takes nothing more from the primary it deposed.
func (r ackingReplica) session(create bool) (*dataservice.Session, error) {
	st := r.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.promoted {
		return nil, ErrPromoted
	}
	if st.sess == nil && create {
		sess, err := st.Service.CreateSession(st.SessionName)
		if err != nil {
			return nil, fmt.Errorf("failover: standby session: %w", err)
		}
		sess.SetReadOnly(true)
		st.sess = sess
	}
	return st.sess, nil
}

func (r ackingReplica) Version() uint64 { return r.st.Applied() }

func (r ackingReplica) Install(sc *scene.Scene) error {
	sess, err := r.session(true)
	if err != nil {
		return err
	}
	sess.InstallScene(sc)
	return r.ack(sess)
}

func (r ackingReplica) Apply(op scene.Op) error {
	sess, err := r.session(false)
	if err != nil {
		return err
	}
	if err := sess.ApplyReplicated(op, r.st.Name); err != nil {
		return err
	}
	return r.ack(sess)
}

func (r ackingReplica) SetCamera(cam transport.CameraState) error {
	sess, err := r.session(false)
	if err != nil || sess == nil {
		return err
	}
	return sess.SetCamera(cam, "")
}

func (r ackingReplica) ack(sess *dataservice.Session) error {
	return r.conn.SendJSON(transport.MsgStandbyAck, transport.VersionReport{Version: sess.Version()})
}
