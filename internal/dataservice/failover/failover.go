// Package failover makes the data service highly available: a primary
// holds a UDDI-registered lease and renews it on the virtual clock
// (Keeper); a hot standby follows the primary's op stream into a
// read-only session of its own data service (Standby — the stream
// itself is internal/follow, the copy a dataservice.Backup); and a
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
	// Name identifies this standby instance (its subscriber name).
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

	mu      sync.Mutex
	replica *dataservice.Backup // made at first use
}

// backup returns the standby's copy of the session.
func (st *Standby) backup() *dataservice.Backup {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.replica == nil {
		st.replica = dataservice.NewBackup(st.Service, st.SessionName)
	}
	return st.replica
}

// Applied returns the highest op version the standby has applied.
func (st *Standby) Applied() uint64 { return st.backup().Version() }

// Promoted reports whether the standby has been promoted.
func (st *Standby) Promoted() bool { return st.backup().Promoted() }

// Promote lifts the read-only guard and detaches the standby from its
// primary: any replication stream still running returns ErrPromoted.
// The session keeps its name, scene and exact version.
func (st *Standby) Promote() (*dataservice.Session, error) {
	sess, err := st.backup().Promote()
	if err != nil {
		return nil, fmt.Errorf("failover: standby %q: %w", st.Name, err)
	}
	return sess, nil
}

// Run follows the primary at rw (follow.Stream): hello (resuming at the
// last applied version when a replica exists), bootstrap, then the
// versioned op stream; the standby sends nothing after its hello. It
// returns ErrPromoted after a promotion, an error wrapping
// ErrReplicationLost when the stream dies, and ctx.Err() when
// cancelled. Safe to call again with a fresh stream after a reconnect —
// the replica is retained and resumed.
func (st *Standby) Run(ctx context.Context, rw io.ReadWriter) error {
	stream := &follow.Stream{
		Conn:        transport.NewConn(rw),
		Hello:       transport.Hello{Role: "standby", Name: st.Name, Session: st.SessionName, Region: st.Region},
		Target:      st.backup(),
		IdleTimeout: st.IdleTimeout,
		Clock:       st.Clock,
	}
	_, err := stream.Run(ctx)
	if err != nil && st.Promoted() {
		return ErrPromoted
	}
	return err
}
