// Command ravedata runs a RAVE data service: it imports a model into a
// session, listens for direct-socket subscriptions from render services
// and clients, optionally records the audit trail and a durable
// write-ahead journal, and registers its access point with a UDDI
// registry.
//
// High availability: with -journal the session survives a crash —
// restarting with the same -journal replays the log to the exact op
// version that was committed before the crash. With -lease the service
// holds a UDDI lease it renews on a heartbeat; -replicas N additionally
// publishes the primary in the registry's replica-location index and
// warns whenever fewer than N followers are reporting. With -standby
// the service instead runs as a replica: it discovers the session's
// current primary through the replica index (nearest-first from its
// -region), follows the op stream, registers its own region-tagged
// index row, and races succession with a catch-up handicap — the
// most-caught-up replica claims the lease first when the primary's
// lease lapses.
//
// Storage faults: a journal that is damaged mid-log (not merely torn at
// the tail) is never replayed — serving the stale prefix would silently
// lose acked ops. With -registry and -region the corrupt segment is
// quarantined to <journal>.corrupt and the service rejoins as a standby,
// bootstrapping the session back from a live replica; without a registry
// it refuses to start. A primary whose disk goes sick mid-run keeps
// serving but advertises storage-degraded through the registry's node
// health table on its heartbeat, and a standby whose own disk fails a
// write probe sits out the succession race rather than claim a
// primaryship it could never journal.
//
//	ravedata -session skull -model skeletal-hand -addr :9000 \
//	         -registry http://host:8090 -lease -replicas 2 -region eu \
//	         -record skull.rava -journal skull.wal
//	ravedata -session skull -addr :9001 -registry http://host:8090 \
//	         -standby -region us -journal standby.wal
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/dataservice"
	"repro/internal/dataservice/failover"
	"repro/internal/dataservice/wal"
	"repro/internal/follow"
	"repro/internal/geom/genmodel"
	"repro/internal/retry"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/uddi"
	"repro/internal/vclock"
	"repro/internal/wsdl"
)

// clock is the binary's single time source; lease renewal and failover
// polling run on vclock.Real per the wallclock contract.
var clock vclock.Clock = vclock.Real{}

// replicationFlags is the validated replication configuration. The
// zero value (no registry, no factor, not a standby) is a plain
// standalone service.
type replicationFlags struct {
	registry string
	region   string
	replicas int
	standby  bool
	lease    bool
	renew    time.Duration
}

// validate rejects contradictory or underspecified replication flags
// up front, with errors instead of silent defaults: a factor without a
// registry cannot be enforced, a standby without a registry cannot
// discover its primary, and locality-aware replication with no -region
// would silently account every bootstrap byte as local.
func (rf replicationFlags) validate() error {
	if rf.replicas < 0 {
		return fmt.Errorf("-replicas %d: replication factor cannot be negative", rf.replicas)
	}
	if rf.renew <= 0 {
		return fmt.Errorf("-lease-renew %v: heartbeat interval must be positive", rf.renew)
	}
	if rf.standby && rf.replicas > 0 {
		return fmt.Errorf("-standby and -replicas are mutually exclusive: the factor is enforced by the lease-holding primary")
	}
	if rf.replicas > 0 && rf.registry == "" {
		return fmt.Errorf("-replicas %d requires -registry: the factor is tracked through the replica-location index", rf.replicas)
	}
	if rf.replicas > 0 && !rf.lease {
		return fmt.Errorf("-replicas %d requires -lease: only the lease-holding primary may publish the factor", rf.replicas)
	}
	if rf.standby && rf.registry == "" {
		return fmt.Errorf("-standby requires -registry: the primary is discovered through the replica index, not a hardwired address")
	}
	if (rf.standby || rf.replicas > 0) && rf.region == "" {
		return fmt.Errorf("replication is locality-aware: -region is required with -standby or -replicas (no silent local default)")
	}
	if rf.lease && rf.registry == "" {
		return fmt.Errorf("-lease requires -registry")
	}
	if strings.ContainsAny(rf.region, " ,") {
		return fmt.Errorf("-region %q: locality must be a single region or region/zone token", rf.region)
	}
	return nil
}

func main() {
	name := flag.String("name", "rave-data", "service name")
	addr := flag.String("addr", "127.0.0.1:9000", "listen address for direct sockets")
	session := flag.String("session", "default", "session name to host")
	model := flag.String("model", "galleon",
		"model to import: galleon, elle, skeletal-hand, skeleton, or a .obj path")
	triangles := flag.Int("triangles", 0, "triangle budget for generated models (0 = paper size)")
	registry := flag.String("registry", "", "UDDI registry URL to register with (optional)")
	region := flag.String("region", "", `locality of this service ("region" or "region/zone"); required for -standby and -replicas`)
	record := flag.String("record", "", "record the session audit trail to this file")
	journal := flag.String("journal", "", "durable session journal (WAL) path; recovers the session if the file exists")
	compactEvery := flag.Int("compact-every", 256, "journal checkpoint compaction threshold in ops")
	lease := flag.Bool("lease", false, "hold a UDDI lease for the session (requires -registry)")
	leaseRenew := flag.Duration("lease-renew", 2*time.Second, "lease renewal heartbeat interval")
	replicas := flag.Int("replicas", 0, "replication factor: warn while fewer than N followers report in the replica index (requires -lease)")
	standby := flag.Bool("standby", false, "run as a replica: discover the primary via the replica index, follow its op stream, race succession most-caught-up-first (requires -registry and -region)")
	telemetryEvery := flag.Duration("telemetry", 0,
		"log a telemetry snapshot at this interval (0 = off); on-demand dumps are always served over the control socket")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ravedata:", err)
		os.Exit(1)
	}

	rf := replicationFlags{
		registry: *registry, region: *region, replicas: *replicas,
		standby: *standby, lease: *lease, renew: *leaseRenew,
	}
	if err := rf.validate(); err != nil {
		flag.Usage()
		fail(err)
	}
	if *compactEvery < 1 {
		fail(fmt.Errorf("-compact-every %d: compaction threshold must be at least 1", *compactEvery))
	}

	metrics := telemetry.NewRegistry(clock)
	svc := dataservice.New(dataservice.Config{
		Name: *name, Clock: clock, Region: *region, Metrics: metrics,
		Tracer: telemetry.NewTracer(clock),
	})
	if *telemetryEvery > 0 {
		go logTelemetry(metrics, *telemetryEvery)
	}
	leaseName := "data:" + *session

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	accessPoint := "tcp://" + ln.Addr().String()

	var proxy *uddi.Proxy
	if *registry != "" {
		proxy = uddi.Connect(*registry)
	}
	register := func() error {
		if proxy == nil {
			return nil
		}
		if _, err := proxy.RegisterService("RAVE", *name, accessPoint, wsdl.DataServicePortType); err != nil {
			return fmt.Errorf("UDDI registration: %w", err)
		}
		fmt.Printf("ravedata: registered %s with %s\n", accessPoint, *registry)
		return nil
	}

	ctx := context.Background()

	if *standby {
		// Replica mode: discover the primary through the replica index,
		// follow its op stream, and stand by for succession.
		runStandby(ctx, svc, metrics, proxy, rf, *session, *name, leaseName, accessPoint, *journal, *compactEvery, register, fail)
	} else if sess, corrupt := openSession(svc, *session, *model, *triangles, *journal, *compactEvery, rf, fail); corrupt {
		// The local journal lied (mid-log corruption, quarantined): the
		// only trustworthy copy of the session lives on a replica.
		// Rejoin as a standby and bootstrap back over the op stream —
		// the lease race decides when this node may own again.
		runStandby(ctx, svc, metrics, proxy, rf, *session, *name, leaseName, accessPoint, *journal, *compactEvery, register, fail)
	} else {
		if *record != "" {
			f, err := os.Create(*record)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			if err := sess.StartRecording(f); err != nil {
				fail(err)
			}
			fmt.Printf("ravedata: recording audit trail to %s\n", *record)
		}
		if err := register(); err != nil {
			fail(err)
		}
		if *lease {
			keeper := &failover.Keeper{
				Leases: proxy, Clock: clock,
				Service: leaseName, Holder: *name, Renew: *leaseRenew,
			}
			if _, err := keeper.Acquire(); err != nil {
				fail(fmt.Errorf("lease: %w", err))
			}
			fmt.Printf("ravedata: holding lease %q (renew every %v)\n", leaseName, *leaseRenew)
			go func() {
				if err := keeper.Run(ctx); err != nil && ctx.Err() == nil {
					// Deposed: a standby took over at a newer epoch. Stand
					// down rather than split the brain.
					fmt.Fprintln(os.Stderr, "ravedata: lease lost, demoting to read-only:", err)
					sess.SetReadOnly(true)
				}
			}()
			if *replicas > 0 {
				go publishPrimary(ctx, metrics, proxy, rf, sess, *session, *name, accessPoint)
			}
		}
	}

	fmt.Printf("ravedata: session %q on %s\n", *session, accessPoint)
	for {
		conn, err := ln.Accept()
		if err != nil {
			fail(err)
		}
		go func(c net.Conn) {
			defer c.Close()
			if err := svc.ServeConn(c); err != nil {
				fmt.Fprintln(os.Stderr, "ravedata: connection:", err)
			}
		}(conn)
	}
}

// logTelemetry periodically writes a metrics snapshot to stderr, the
// operator's running view of queue depths, hedge activity and WAL cost.
func logTelemetry(metrics *telemetry.Registry, every time.Duration) {
	for {
		clock.Sleep(every)
		if err := telemetry.WriteText(os.Stderr, metrics.Snapshot()); err != nil {
			return
		}
	}
}

// replicaTTL is how long an index row outlives its last heartbeat —
// the same missed-renewal budget the lease itself gets.
func replicaTTL(renew time.Duration) time.Duration {
	return time.Duration(failover.DefaultMissedRenewals) * renew
}

// publishPrimary keeps the primary's row in the replica-location index
// fresh and watches the live follower count against the configured
// factor, logging each transition into and out of under-replication.
// The index, not this process, is the source of truth: followers
// recruit themselves, so all the primary can do about a deficit is say
// so loudly. The same heartbeat keeps the registry's node health table
// current: while the wal_poisoned gauge is up (a journal append or sync
// failed and the session's durability is gone) the row says
// storage-degraded, steering placement and succession away from this
// disk; rows are TTL'd, so a crashed primary's claim of health lapses
// on its own.
func publishPrimary(ctx context.Context, metrics *telemetry.Registry, proxy *uddi.Proxy, rf replicationFlags, sess *dataservice.Session, session, name, accessPoint string) {
	row := uddi.Replica{
		Session: session, Name: name, Region: rf.region,
		AccessPoint: accessPoint, Role: uddi.RolePrimary,
	}
	// Upsert first: ReportReplica only refreshes an existing row, and a
	// stale replica-role row from a pre-promotion life must be replaced
	// by the primary registration (which demotes any rival primary row).
	row.Version = sess.Version()
	if _, err := proxy.RegisterReplica(row, replicaTTL(rf.renew), clock.Now()); err != nil {
		fmt.Fprintln(os.Stderr, "ravedata: replica index registration:", err)
	}
	under, degraded := false, false
	for {
		select {
		case <-ctx.Done():
			return
		case <-clock.After(rf.renew):
		}
		state, detail := uddi.HealthOK, ""
		if m, ok := metrics.Snapshot().Get(name, "wal_poisoned", ""); ok && m.Value != 0 {
			state, detail = uddi.HealthStorageDegraded, "wal poisoned: journal appends failing, session no longer durable"
		}
		if err := proxy.ReportHealth(name, state, detail, replicaTTL(rf.renew), clock.Now()); err != nil {
			fmt.Fprintln(os.Stderr, "ravedata: health report:", err)
		}
		if state == uddi.HealthStorageDegraded && !degraded {
			degraded = true
			fmt.Fprintf(os.Stderr, "ravedata: storage degraded: %s (reported to registry; serving from memory until evacuated)\n", detail)
		} else if state == uddi.HealthOK && degraded {
			degraded = false
			fmt.Printf("ravedata: storage health restored, registry row back to ok\n")
		}
		row.Version = sess.Version()
		if _, err := proxy.ReportReplica(session, name, row.Version, replicaTTL(rf.renew), clock.Now()); err != nil {
			if _, err := proxy.RegisterReplica(row, replicaTTL(rf.renew), clock.Now()); err != nil {
				fmt.Fprintln(os.Stderr, "ravedata: replica index registration:", err)
			}
		}
		rows, err := proxy.QueryReplicas(session, rf.region, clock.Now())
		if err == nil {
			followers := 0
			for _, rep := range rows {
				if rep.Role == uddi.RoleReplica {
					followers++
				}
			}
			if followers < rf.replicas && !under {
				under = true
				fmt.Fprintf(os.Stderr, "ravedata: session %q under-replicated: %d/%d followers reporting\n",
					session, followers, rf.replicas)
			} else if followers >= rf.replicas && under {
				under = false
				fmt.Printf("ravedata: session %q replication factor restored (%d/%d followers)\n",
					session, followers, rf.replicas)
			}
		}
	}
}

// openSession creates the primary session: recovered from an existing
// journal when one is present, imported from the model otherwise. A
// torn tail is survivable (the damage is after the last synced op) and
// is discarded with a note; mid-log corruption is not — replaying the
// prefix would silently serve a version older than what was acked, so
// the segment is never trusted. When the replica index is reachable
// (-registry with a -region) the corrupt segment is quarantined and the
// caller rejoins as a standby (corrupt=true); otherwise startup fails
// with the quarantine instructions.
func openSession(svc *dataservice.Service, session, model string, triangles int, journal string, compactEvery int, rf replicationFlags, fail func(error)) (sess *dataservice.Session, corrupt bool) {
	if journal != "" {
		store := wal.NewOSStore(journal)
		if wal.Exists(store) {
			sess, rec, err := svc.RecoverSession(session, store, compactEvery)
			switch {
			case err == nil:
				torn := ""
				if rec.Torn != nil {
					torn = fmt.Sprintf(" (discarded torn tail: %v)", rec.Torn)
				}
				fmt.Printf("ravedata: recovered session %q from %s at version %d (%d ops replayed)%s\n",
					session, journal, rec.Version, len(rec.Ops), torn)
				return sess, false
			case errors.Is(err, wal.ErrLogCorrupt):
				if rf.registry == "" || rf.region == "" {
					fail(fmt.Errorf("journal recovery: %w\n"+
						"ravedata: %s is damaged mid-log; replaying it would serve a stale prefix of the acked session, refusing.\n"+
						"ravedata: restart with -registry and -region to quarantine the segment and bootstrap from a replica, or move the file aside to reimport from the model", err, journal))
				}
				if qerr := store.Quarantine(); qerr != nil {
					fail(fmt.Errorf("journal recovery: %w; quarantine also failed: %v", err, qerr))
				}
				fmt.Fprintf(os.Stderr, "ravedata: journal %s is damaged mid-log (%v); quarantined to %s.corrupt, rejoining as a standby to bootstrap from a replica\n",
					journal, err, journal)
				return nil, true
			default:
				fail(fmt.Errorf("journal recovery: %w", err))
			}
		}
	}

	if mesh, err := genmodel.ByName(model, triangles); err == nil {
		sess, err = svc.CreateSessionFromMesh(session, model, mesh)
		if err != nil {
			fail(err)
		}
	} else {
		f, ferr := os.Open(model)
		if ferr != nil {
			fail(fmt.Errorf("model %q is neither a generator nor a readable file: %v", model, ferr))
		}
		var cerr error
		sess, cerr = svc.CreateSessionFromOBJ(session, f)
		f.Close()
		if cerr != nil {
			fail(cerr)
		}
	}
	if journal != "" {
		if err := sess.StartJournal(wal.NewOSStore(journal), compactEvery); err != nil {
			fail(err)
		}
		fmt.Printf("ravedata: journaling session %q to %s\n", session, journal)
	}
	return sess, false
}

// discoverPrimary resolves the session's current primary access point
// through the replica-location index, skipping our own row.
func discoverPrimary(proxy *uddi.Proxy, session, fromRegion, self string) (string, error) {
	rows, err := proxy.QueryReplicas(session, fromRegion, clock.Now())
	if err != nil {
		return "", err
	}
	for _, rep := range rows {
		if rep.Role == uddi.RolePrimary && rep.Name != self {
			return rep.AccessPoint, nil
		}
	}
	return "", fmt.Errorf("no live primary row for session %q in the replica index", session)
}

// reportReplica keeps this replica's region-tagged index row fresh so
// peers (and the primary's factor watch) can see it, re-registering the
// full row whenever the heartbeat finds it lapsed.
func reportReplica(ctx context.Context, proxy *uddi.Proxy, st *failover.Standby, rf replicationFlags, session, name, accessPoint string) {
	row := uddi.Replica{
		Session: session, Name: name, Region: rf.region,
		AccessPoint: accessPoint, Role: uddi.RoleReplica,
	}
	for !st.Promoted() {
		row.Version = st.Applied()
		if _, err := proxy.ReportReplica(session, name, row.Version, replicaTTL(rf.renew), clock.Now()); err != nil {
			if _, err := proxy.RegisterReplica(row, replicaTTL(rf.renew), clock.Now()); err != nil {
				fmt.Fprintln(os.Stderr, "ravedata: replica index registration:", err)
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-clock.After(rf.renew):
		}
	}
}

// diskProbe builds the succession-race abstain check for a standby
// journaling to the given path: an append-and-fsync against a sibling
// .probe file (same disk and directory as the journal, never the
// segment itself — Append would create an empty segment that a later
// restart would mistake for a recoverable log). A standby that cannot
// sync a byte could not journal the primaryship it is about to claim,
// so it sits the round out and lets a healthy rival take the lease.
// Returns nil (never abstain) for memory-only standbys.
func diskProbe(journal string) func() bool {
	if journal == "" {
		return nil
	}
	probe := wal.NewOSStore(journal + ".probe")
	sick := false
	return func() bool {
		err := wal.Probe(probe)
		if err != nil && !sick {
			sick = true
			fmt.Fprintf(os.Stderr, "ravedata: disk probe failed (%v); sitting out the succession race until the disk recovers\n", err)
		} else if err == nil && sick {
			sick = false
			fmt.Printf("ravedata: disk probe healthy again, rejoining the succession race\n")
		}
		return err != nil
	}
}

// catchUpHandicap defers this replica's succession claim in proportion
// to how far it lags the most-caught-up row in the index, so with N
// replicas racing the same lapsed lease the freshest copy claims first.
// The wait is bounded: a deep deficit delays takeover, it does not
// prevent it.
func catchUpHandicap(proxy *uddi.Proxy, st *failover.Standby, rf replicationFlags, session string) time.Duration {
	rows, err := proxy.QueryReplicas(session, rf.region, clock.Now())
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
	d := time.Duration(best-applied) * (rf.renew / 4)
	if max := 2 * rf.renew; d > max {
		d = max
	}
	return d
}

// runStandby follows the session's primary — rediscovering it through
// the replica index on every reconnect — and blocks until promotion,
// after which the (now authoritative) service keeps serving
// connections.
func runStandby(ctx context.Context, svc *dataservice.Service, metrics *telemetry.Registry, proxy *uddi.Proxy, rf replicationFlags, session, name, leaseName, accessPoint, journal string, compactEvery int, register func() error, fail func(error)) {
	st := &failover.Standby{
		Service: svc, SessionName: session, Name: "standby:" + name,
		Region:      rf.region,
		IdleTimeout: failover.DefaultMissedRenewals * rf.renew, Clock: clock,
	}
	// Replication loop: rediscover and redial the primary, once per
	// renewal period, for as long as this node stands by. Discovery
	// through the index (rather than a hardwired address) is what lets
	// the follower chase the primary across failovers.
	following, stopFollowing := context.WithCancel(ctx)
	defer stopFollowing()
	go func() {
		everyRenew := retry.Policy{BaseDelay: rf.renew, MaxDelay: rf.renew}
		dial := func() (io.ReadWriteCloser, error) {
			primaryAddr, err := discoverPrimary(proxy, session, rf.region, name)
			if err != nil {
				return nil, err
			}
			return transport.Dial(primaryAddr)
		}
		_ = follow.Redial(following, clock, everyRenew, dial, func(rw io.ReadWriter) (bool, error) {
			err := st.Run(following, rw)
			if err == nil {
				// A primary that says goodbye is still a primary to wait for.
				err = errors.New("primary closed the stream")
			}
			fmt.Fprintln(os.Stderr, "ravedata: replication:", err)
			return false, err // the pace is constant and unbounded: no budget to reset
		})
	}()
	go reportReplica(ctx, proxy, st, rf, session, name, accessPoint)
	mon := &failover.Monitor{
		Leases: proxy, Clock: clock,
		Service: leaseName, Holder: name, Poll: rf.renew,
		Standby:    st,
		Handicap:   func() time.Duration { return catchUpHandicap(proxy, st, rf, session) },
		Abstain:    diskProbe(journal),
		Reregister: register,
	}
	fmt.Printf("ravedata: standing by for %q in %s (lease %q, primary via replica index)\n", session, rf.region, leaseName)
	promo, err := mon.Run(ctx)
	stopFollowing()
	if err != nil {
		fail(fmt.Errorf("failover monitor: %w", err))
	}
	fmt.Printf("ravedata: promoted at version %d, epoch %d\n", promo.Version, promo.Lease.Epoch)
	if journal != "" {
		if err := promo.Session.StartJournal(wal.NewOSStore(journal), compactEvery); err != nil {
			fail(err)
		}
		fmt.Printf("ravedata: journaling promoted session %q to %s\n", session, journal)
	}
	// The promoted primary takes over the index row and the factor watch:
	// its old replica row is dropped so the primary registration (which
	// demotes any other primary row) is the only authoritative entry.
	if err := proxy.DropReplica(session, name); err != nil {
		fmt.Fprintln(os.Stderr, "ravedata: replica index cleanup:", err)
	}
	go publishPrimary(ctx, metrics, proxy, rf, promo.Session, session, name, accessPoint)
	// Keep the claimed lease alive as the new primary.
	keeper := &failover.Keeper{
		Leases: proxy, Clock: clock,
		Service: leaseName, Holder: name, Renew: rf.renew,
	}
	if _, err := keeper.Acquire(); err != nil {
		fail(fmt.Errorf("lease after promotion: %w", err))
	}
	go func() {
		if err := keeper.Run(ctx); err != nil && ctx.Err() == nil {
			fmt.Fprintln(os.Stderr, "ravedata: lease lost, demoting to read-only:", err)
			promo.Session.SetReadOnly(true)
		}
	}()
}
