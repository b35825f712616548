package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/dataservice"
	"repro/internal/dataservice/failover"
	"repro/internal/dataservice/wal"
	"repro/internal/follow"
	"repro/internal/geom/genmodel"
	"repro/internal/retry"
	"repro/internal/telemetry"
	"repro/internal/uddi"
	"repro/internal/vclock"
	"repro/internal/wsdl"
)

// DataNode is the life-cycle of one data-service daemon — what
// cmd/ravedata runs (its package comment tells the operator's side), each
// exported field one of its flags. Run brings the session up as a primary
// (lead) or a replica awaiting succession (standBy) and serves it. On
// vclock.Real throughout: lease renewal and failover polling are
// wall-clock protocols between processes.
type DataNode struct {
	Name         string        // service name: UDDI service, lease holder, index row
	Session      string        // the session hosted
	Model        string        // generator name or .obj path imported when no journal recovers
	Triangles    int           // triangle budget for generated models (0 = paper size)
	Registry     string        // UDDI registry URL; empty runs standalone
	Region       string        // locality, "region" or "region/zone"
	Record       string        // audit-trail path; empty records nothing
	Journal      string        // write-ahead journal path; empty keeps the session in memory
	CompactEvery int           // journal checkpoint compaction threshold in ops
	Lease        bool          // hold the session's UDDI lease
	Renew        time.Duration // lease, index-row and health heartbeat
	Replicas     int           // replication factor to watch for
	Standby      bool          // start as a replica
	Telemetry    time.Duration // metrics snapshot interval; 0 logs none

	// Info takes progress lines and Warn trouble the node survives; Warn's
	// writer also takes the telemetry snapshots.
	Info, Warn *log.Logger

	once        sync.Once
	clock       vclock.Clock
	metrics     *telemetry.Registry
	svc         *dataservice.Service
	proxy       *uddi.Proxy
	accessPoint string
	trail       *os.File
	bg          sync.WaitGroup
}

// Validate rejects contradictory or underspecified replication settings
// up front, with errors instead of silent defaults: a factor without a
// registry cannot be enforced, a standby without a registry cannot
// discover its primary, and locality-aware replication with no region
// would silently account every bootstrap byte as local.
func (n *DataNode) Validate() error {
	if n.Replicas < 0 {
		return fmt.Errorf("-replicas %d: replication factor cannot be negative", n.Replicas)
	}
	if n.Renew <= 0 {
		return fmt.Errorf("-lease-renew %v: heartbeat interval must be positive", n.Renew)
	}
	if n.Standby && n.Replicas > 0 {
		return fmt.Errorf("-standby and -replicas are mutually exclusive: the factor is enforced by the lease-holding primary")
	}
	if n.Replicas > 0 && n.Registry == "" {
		return fmt.Errorf("-replicas %d requires -registry: the factor is tracked through the replica-location index", n.Replicas)
	}
	if n.Replicas > 0 && !n.Lease {
		return fmt.Errorf("-replicas %d requires -lease: only the lease-holding primary may publish the factor", n.Replicas)
	}
	if n.Standby && n.Registry == "" {
		return fmt.Errorf("-standby requires -registry: the primary is discovered through the replica index, not a hardwired address")
	}
	if (n.Standby || n.Replicas > 0) && n.Region == "" {
		return fmt.Errorf("replication is locality-aware: -region is required with -standby or -replicas (no silent local default)")
	}
	if n.Lease && n.Registry == "" {
		return fmt.Errorf("-lease requires -registry")
	}
	if strings.ContainsAny(n.Region, " ,") {
		return fmt.Errorf("-region %q: locality must be a single region or region/zone token", n.Region)
	}
	return nil
}

// Service returns the node's data service, building it (and the clock,
// metrics and registry proxy beside it) on first use.
func (n *DataNode) Service() *dataservice.Service {
	n.once.Do(func() {
		n.clock = vclock.Real{}
		n.metrics = telemetry.NewRegistry(n.clock)
		n.svc = dataservice.New(dataservice.Config{
			Name: n.Name, Clock: n.clock, Region: n.Region, Metrics: n.metrics,
			Tracer: telemetry.NewTracer(n.clock),
		})
		if n.Registry != "" {
			n.proxy = uddi.Connect(n.Registry)
		}
	})
	return n.svc
}

// Run brings the session up — which for a standby means waiting out its
// promotion — and then serves subscribers on ln until ctx is cancelled
// or a step fails. Run owns ln, and everything it started has stopped
// when it returns.
func (n *DataNode) Run(ctx context.Context, ln net.Listener) error {
	if err := n.Validate(); err != nil {
		return err
	}
	svc := n.Service()
	n.accessPoint = "tcp://" + ln.Addr().String()
	ctx, cancel := context.WithCancel(ctx)
	defer func() {
		cancel()
		n.bg.Wait()
		if n.trail != nil {
			n.trail.Close()
		}
	}()
	context.AfterFunc(ctx, func() { ln.Close() })
	if n.Telemetry > 0 {
		n.spawn(func() { LogTelemetry(ctx, n.clock, n.metrics, n.Telemetry, n.Warn.Writer()) })
	}

	if err := n.lead(ctx); err != nil {
		return err
	}
	n.Info.Printf("session %q on %s", n.Session, n.accessPoint)
	err := Serve(ln, func(c net.Conn) error { return svc.ServeConn(c) },
		func(err error) { n.Warn.Printf("connection: %v", err) })
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return err
}

// spawn runs f on a goroutine Run waits for.
func (n *DataNode) spawn(f func()) {
	n.bg.Add(1)
	go func() {
		defer n.bg.Done()
		f()
	}()
}

func (n *DataNode) leaseName() string { return "data:" + n.Session }

// ttl is how long a lease, an index row or a health report outlives its
// last heartbeat.
func (n *DataNode) ttl() time.Duration { return failover.DefaultMissedRenewals * n.Renew }

// register publishes the node's access point, when there is a registry.
func (n *DataNode) register() error {
	if n.Registry == "" {
		return nil
	}
	if err := Register(n.Registry, n.Name, n.accessPoint, wsdl.DataServicePortType); err != nil {
		return err
	}
	n.Info.Printf("registered %s with %s", n.accessPoint, n.Registry)
	return nil
}

// lead makes the node the session's primary: at once, or for a standby
// by succession. When the local journal lied (mid-log corruption,
// quarantined) the only trustworthy copy of the session lives on a
// replica: the node rejoins as a standby and bootstraps back over the op
// stream — the lease race decides when it may own again.
func (n *DataNode) lead(ctx context.Context) error {
	if n.Standby {
		return n.standBy(ctx)
	}
	sess, err := n.open()
	if errors.Is(err, errQuarantined) {
		return n.standBy(ctx)
	}
	if err != nil {
		return err
	}
	if n.Record != "" {
		if n.trail, err = os.Create(n.Record); err != nil {
			return err
		}
		if err := sess.StartRecording(n.trail); err != nil {
			return err
		}
		n.Info.Printf("recording audit trail to %s", n.Record)
	}
	if err := n.register(); err != nil {
		return err
	}
	if n.Lease {
		if err := n.holdLease(ctx, sess); err != nil {
			return fmt.Errorf("lease: %w", err)
		}
		n.Info.Printf("holding lease %q (renew every %v)", n.leaseName(), n.Renew)
		if n.Replicas > 0 {
			n.spawn(func() { n.publish(ctx, sess) })
		}
	}
	return nil
}

// holdLease claims the session's lease and renews it in the background.
// A renewal refused as stale means a standby took over at a newer epoch:
// the session is demoted to read-only rather than split the brain.
func (n *DataNode) holdLease(ctx context.Context, sess *dataservice.Session) error {
	keeper := &failover.Keeper{
		Leases: n.proxy, Clock: n.clock,
		Service: n.leaseName(), Holder: n.Name, Renew: n.Renew,
	}
	if _, err := keeper.Acquire(); err != nil {
		return err
	}
	n.spawn(func() {
		if err := keeper.Run(ctx); err != nil && ctx.Err() == nil {
			n.Warn.Printf("lease lost, demoting to read-only: %v", err)
			sess.SetReadOnly(true)
		}
	})
	return nil
}

// errQuarantined is open's report that the journal was damaged mid-log
// and has been moved aside.
var errQuarantined = errors.New("journal quarantined")

// open creates the primary session: recovered from an existing journal
// when one is present, imported from the model otherwise.
func (n *DataNode) open() (*dataservice.Session, error) {
	if n.Journal != "" {
		if store := wal.NewOSStore(n.Journal); wal.Exists(store) {
			return n.recoverJournal(store)
		}
	}
	var sess *dataservice.Session
	if mesh, err := genmodel.ByName(n.Model, n.Triangles); err == nil {
		if sess, err = n.svc.CreateSessionFromMesh(n.Session, n.Model, mesh); err != nil {
			return nil, err
		}
	} else {
		f, err := os.Open(n.Model)
		if err != nil {
			return nil, fmt.Errorf("model %q is neither a generator nor a readable file: %v", n.Model, err)
		}
		sess, err = n.svc.CreateSessionFromOBJ(n.Session, f)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return sess, n.journal(sess, "")
}

// recoverJournal rebuilds the session from its journal. A torn tail is
// survivable (the damage is after the last synced op) and is discarded
// with a note; mid-log corruption is not — replaying the prefix would
// silently serve a version older than what was acked, so the segment is
// never trusted. When the replica index is reachable (a registry and a
// region) the corrupt segment is quarantined and errQuarantined returned;
// otherwise the error carries the quarantine instructions.
func (n *DataNode) recoverJournal(store *wal.OSStore) (*dataservice.Session, error) {
	sess, rec, err := n.svc.RecoverSession(n.Session, store, n.CompactEvery)
	switch {
	case err == nil:
		torn := ""
		if rec.Torn != nil {
			torn = fmt.Sprintf(" (discarded torn tail: %v)", rec.Torn)
		}
		n.Info.Printf("recovered session %q from %s at version %d (%d ops replayed)%s",
			n.Session, n.Journal, rec.Version, len(rec.Ops), torn)
		return sess, nil
	case !errors.Is(err, wal.ErrLogCorrupt):
		return nil, fmt.Errorf("journal recovery: %w", err)
	case n.Registry == "" || n.Region == "":
		return nil, fmt.Errorf("journal recovery: %w\n"+
			"%s is damaged mid-log; replaying it would serve a stale prefix of the acked session, refusing.\n"+
			"restart with -registry and -region to quarantine the segment and bootstrap from a replica, or move the file aside to reimport from the model", err, n.Journal)
	}
	if qerr := store.Quarantine(); qerr != nil {
		return nil, fmt.Errorf("journal recovery: %w; quarantine also failed: %v", err, qerr)
	}
	n.Warn.Printf("journal %s is damaged mid-log (%v); quarantined to %s.corrupt, rejoining as a standby to bootstrap from a replica",
		n.Journal, err, n.Journal)
	return nil, errQuarantined
}

// journal attaches the write-ahead journal to sess, when one is
// configured.
func (n *DataNode) journal(sess *dataservice.Session, promoted string) error {
	if n.Journal == "" {
		return nil
	}
	if err := sess.StartJournal(wal.NewOSStore(n.Journal), n.CompactEvery); err != nil {
		return err
	}
	n.Info.Printf("journaling %ssession %q to %s", promoted, n.Session, n.Journal)
	return nil
}

// registerReplica writes the node's full row into the replica-location
// index.
func (n *DataNode) registerReplica(role uddi.ReplicaRole, version uint64) {
	row := uddi.Replica{
		Session: n.Session, Name: n.Name, Region: n.Region,
		AccessPoint: n.accessPoint, Role: role, Version: version,
	}
	if _, err := n.proxy.RegisterReplica(row, n.ttl(), n.clock.Now()); err != nil {
		n.Warn.Printf("replica index registration: %v", err)
	}
}

// upsertReplica refreshes the node's row in the index, re-registering the
// full row whenever the heartbeat finds it lapsed.
func (n *DataNode) upsertReplica(role uddi.ReplicaRole, version uint64) {
	if _, err := n.proxy.ReportReplica(n.Session, n.Name, version, n.ttl(), n.clock.Now()); err != nil {
		n.registerReplica(role, version)
	}
}

// publish keeps the primary's row in the replica-location index fresh
// and watches the live follower count against the configured factor,
// logging each transition into and out of under-replication. The index,
// not this process, is the source of truth: followers recruit
// themselves, so all the primary can do about a deficit is say so
// loudly. The same heartbeat keeps the registry's node health table
// current: while the wal_poisoned gauge is up (a journal append or sync
// failed and the session's durability is gone) the row says
// storage-degraded, steering placement and succession away from this
// disk; rows are TTL'd, so a crashed primary's claim of health lapses on
// its own.
func (n *DataNode) publish(ctx context.Context, sess *dataservice.Session) {
	// Register first: ReportReplica only refreshes an existing row, and a
	// stale replica-role row from a pre-promotion life must be replaced
	// by the primary registration (which demotes any rival primary row).
	n.registerReplica(uddi.RolePrimary, sess.Version())
	under, degraded := false, false
	for {
		select {
		case <-ctx.Done():
			return
		case <-n.clock.After(n.Renew):
		}
		state, detail := uddi.HealthOK, ""
		if m, ok := n.metrics.Snapshot().Get(n.Name, "wal_poisoned", ""); ok && m.Value != 0 {
			state, detail = uddi.HealthStorageDegraded, "wal poisoned: journal appends failing, session no longer durable"
		}
		if err := n.proxy.ReportHealth(n.Name, state, detail, n.ttl(), n.clock.Now()); err != nil {
			n.Warn.Printf("health report: %v", err)
		}
		if state == uddi.HealthStorageDegraded && !degraded {
			degraded = true
			n.Warn.Printf("storage degraded: %s (reported to registry; serving from memory until evacuated)", detail)
		} else if state == uddi.HealthOK && degraded {
			degraded = false
			n.Info.Printf("storage health restored, registry row back to ok")
		}
		n.upsertReplica(uddi.RolePrimary, sess.Version())
		rows, err := n.proxy.QueryReplicas(n.Session, n.Region, n.clock.Now())
		if err != nil {
			continue
		}
		followers := 0
		for _, rep := range rows {
			if rep.Role == uddi.RoleReplica {
				followers++
			}
		}
		if followers < n.Replicas && !under {
			under = true
			n.Warn.Printf("session %q under-replicated: %d/%d followers reporting", n.Session, followers, n.Replicas)
		} else if followers >= n.Replicas && under {
			under = false
			n.Info.Printf("session %q replication factor restored (%d/%d followers)", n.Session, followers, n.Replicas)
		}
	}
}

// primaryOf narrows a replica index to what a standby may follow: the
// session's primary row, never the standby's own.
type primaryOf struct {
	index ReplicaScanner
	self  string
}

// QueryReplicas implements ReplicaScanner.
func (p primaryOf) QueryReplicas(session, fromRegion string, now time.Time) ([]uddi.Replica, error) {
	rows, err := p.index.QueryReplicas(session, fromRegion, now)
	var primaries []uddi.Replica
	for _, rep := range rows {
		if rep.Role == uddi.RolePrimary && rep.Name != p.self {
			primaries = append(primaries, rep)
		}
	}
	return primaries, err
}

// diskProbe builds the succession-race abstain check for a standby
// journaling to n.Journal: an append-and-fsync against a sibling .probe
// file (same disk and directory as the journal, never the segment itself
// — Append would create an empty segment that a later restart would
// mistake for a recoverable log). A standby that cannot sync a byte
// could not journal the primaryship it is about to claim, so it sits the
// round out and lets a healthy rival take the lease. Returns nil (never
// abstain) for memory-only standbys.
func (n *DataNode) diskProbe() func() bool {
	if n.Journal == "" {
		return nil
	}
	probe := wal.NewOSStore(n.Journal + ".probe")
	sick := false
	return func() bool {
		err := wal.Probe(probe)
		if err != nil && !sick {
			sick = true
			n.Warn.Printf("disk probe failed (%v); sitting out the succession race until the disk recovers", err)
		} else if err == nil && sick {
			sick = false
			n.Info.Printf("disk probe healthy again, rejoining the succession race")
		}
		return err != nil
	}
}

// catchUpHandicap defers this replica's succession claim in proportion
// to how far it lags the most-caught-up row in the index, so with N
// replicas racing the same lapsed lease the freshest copy claims first.
// The wait is bounded: a deep deficit delays takeover, it does not
// prevent it.
func (n *DataNode) catchUpHandicap(st *failover.Standby) time.Duration {
	rows, err := n.proxy.QueryReplicas(n.Session, n.Region, n.clock.Now())
	if err != nil {
		return 0
	}
	var best uint64
	for _, rep := range rows {
		if rep.Role == uddi.RoleReplica && rep.Version > best {
			best = rep.Version
		}
	}
	applied := st.Applied()
	if best <= applied {
		return 0
	}
	return min(time.Duration(best-applied)*(n.Renew/4), 2*n.Renew)
}

// standBy follows the session's primary — rediscovering it through the
// replica index on every reconnect, which is what lets the follower chase
// the primary across failovers — keeps its own region-tagged index row
// fresh so peers and the primary's factor watch can see it, and blocks
// until the lease lapses and this node wins the succession; then it takes
// over the primary's duties and returns.
func (n *DataNode) standBy(ctx context.Context) error {
	st := &failover.Standby{
		Service: n.svc, SessionName: n.Session, Name: "standby:" + n.Name,
		Region:      n.Region,
		IdleTimeout: n.ttl(), Clock: n.clock,
	}
	following, stopFollowing := context.WithCancel(ctx)
	n.spawn(func() {
		everyRenew := retry.Policy{BaseDelay: n.Renew, MaxDelay: n.Renew}
		dial := NearestReplicaDialer(primaryOf{n.proxy, n.Name}, n.clock, n.Session, n.Region, nil, nil)
		_ = follow.Redial(following, n.clock, everyRenew, dial, func(rw io.ReadWriter) (bool, error) {
			err := st.Run(following, rw)
			if err == nil {
				// A primary that says goodbye is still a primary to wait for.
				err = errors.New("primary closed the stream")
			}
			n.Warn.Printf("replication: %v", err)
			return false, err // the pace is constant and unbounded: no budget to reset
		})
	})
	n.spawn(func() {
		for !st.Promoted() {
			n.upsertReplica(uddi.RoleReplica, st.Applied())
			select {
			case <-following.Done():
				return
			case <-n.clock.After(n.Renew):
			}
		}
	})
	mon := &failover.Monitor{
		Leases: n.proxy, Clock: n.clock,
		Service: n.leaseName(), Holder: n.Name, Poll: n.Renew,
		Standby:    st,
		Handicap:   func() time.Duration { return n.catchUpHandicap(st) },
		Abstain:    n.diskProbe(),
		Reregister: n.register,
	}
	n.Info.Printf("standing by for %q in %s (lease %q, primary via replica index)", n.Session, n.Region, n.leaseName())
	promo, err := mon.Run(ctx)
	stopFollowing()
	if err != nil {
		return fmt.Errorf("failover monitor: %w", err)
	}
	n.Info.Printf("promoted at version %d, epoch %d", promo.Version, promo.Lease.Epoch)
	if err := n.journal(promo.Session, "promoted "); err != nil {
		return err
	}
	// The promoted primary takes over the index row and the factor watch:
	// its old replica row is dropped so the primary registration (which
	// demotes any other primary row) is the only authoritative entry.
	if err := n.proxy.DropReplica(n.Session, n.Name); err != nil {
		n.Warn.Printf("replica index cleanup: %v", err)
	}
	n.spawn(func() { n.publish(ctx, promo.Session) })
	// Keep the claimed lease alive as the new primary.
	if err := n.holdLease(ctx, promo.Session); err != nil {
		return fmt.Errorf("lease after promotion: %w", err)
	}
	return nil
}
