// Package dataservice implements RAVE's data service (§3.1.1): the
// persistent, central distribution point for scene data. It hosts
// multiple sessions, imports data from files or live feeds, streams an
// audit trail of changes to disk for asynchronous collaboration, fans out
// updates to subscribed render services, interrogates render services
// for capacity, orchestrates dataset and framebuffer distribution, and
// recruits additional render services through UDDI when the session is
// short of rendering resources (§3.2.7).
package dataservice

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/dataservice/wal"
	"repro/internal/geom"
	"repro/internal/geom/objply"
	"repro/internal/marshal"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/scene"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Subscriber receives a session's update stream. Render services and
// render-capable clients implement this; the socket adapter in this
// package bridges it onto a transport.Conn.
type Subscriber interface {
	// SendUpdate delivers one committed scene update.
	SendUpdate(u Update) error
	// SendCamera delivers a shared-camera change.
	SendCamera(cam transport.CameraState) error
}

// Update is one committed op on its way to a subscriber: the op for a
// follower in this process, and for a socket the op's wire bytes, which
// the commit encoded once for its journal and every subscriber alike.
type Update struct {
	Op scene.Op
	// Version is the authoritative scene version the op produced.
	Version uint64
	// Filtered marks delivery to an interest-filtered subscriber. Such a
	// stream misses ops by design, so it carries no version tags (a gap
	// there is not a fault) and cannot feed a follower that orders by
	// version.
	Filtered bool
	// Wire is Op's marshal encoding, shared with the commit's other
	// consumers: read-only.
	Wire []byte
}

// Config configures a data service.
type Config struct {
	Name  string
	Clock vclock.Clock
	// Region is the service's locality ("region" or "region/zone").
	// Bootstrap transfers to a subscriber in another region are counted
	// on the cross-region bootstrap-bytes series; empty means the
	// single-site deployment the paper ran, where everything is local.
	Region string
	// Metrics receives the service's telemetry series (hedge outcomes,
	// WAL latencies, fan-out errors). Defaults to a private registry on
	// the service clock; simulated deployments pass one shared registry
	// so a single snapshot covers the whole fleet.
	Metrics *telemetry.Registry
	// Tracer records frame/op spans; nil disables tracing (tracer
	// methods are nil-safe).
	Tracer *telemetry.Tracer
}

// Service hosts sessions. "Multiple sessions may be managed by the same
// data service, sharing resources between users."
type Service struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*Session
}

// New creates a data service.
func New(cfg Config) *Service {
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real{}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry(cfg.Clock)
	}
	return &Service{cfg: cfg, sessions: map[string]*Session{}}
}

// Name returns the service name.
func (s *Service) Name() string { return s.cfg.Name }

// Region returns the service's configured locality (possibly empty).
func (s *Service) Region() string { return s.cfg.Region }

// Session is one hosted collaborative session: the authoritative scene,
// the shared camera, the subscriber set and the audit recorder.
type Session struct {
	Name string
	svc  *Service

	mu          sync.Mutex
	scene       *scene.Scene
	camera      transport.CameraState
	subscribers map[string]Subscriber
	interests   map[string]*interestSet
	recorder    *recorder
	journal     *journalSink
	distributor *Distributor

	// history is a bounded ring of recently committed ops so an
	// interrupted subscriber can resume at its last applied version and
	// resync only the gap instead of re-bootstrapping the whole scene.
	history opHistory
	// readOnly marks a hot-standby session: external updates are
	// refused until promotion, but the replication path still applies.
	readOnly bool
	// standbyAcks tracks, per standby replica, the highest op version it
	// acknowledged as applied (replication lag observability).
	standbyAcks map[string]uint64
	// snapshotsServed / resumesServed count bootstrap paths taken, so
	// tests can assert a reconnect resynced only the gap.
	snapshotsServed uint64
	resumesServed   uint64
}

// ErrReadOnly is returned for updates sent to a standby session that
// has not been promoted: only the primary accepts external writes.
var ErrReadOnly = errors.New("dataservice: session is a read-only standby")

// ErrJournalFault marks an update refused because the durable journal
// could not commit it — a full, sick, or dying disk, not a bad op. The
// op was applied to the in-memory scene but never fanned out, so the
// session is poisoned for writes (the journal is sticky-bad) while its
// memory remains a valid promotion source. The fleet reaction is
// evacuation: mark the node storage-degraded and move its sessions to
// replicas, preferring replica copies over the phantom-op scene.
var ErrJournalFault = errors.New("dataservice: journal fault")

// FanoutError reports that an update was committed — applied, journalled
// and given Version — but could not be delivered to a subscriber. The
// op's author has nothing to retry: the subscriber's own follower redials
// and resumes from the history ring. ApplyUpdate returns the first one
// per op; every one is counted on fanout_errors_total{peer}.
type FanoutError struct {
	Version    uint64
	Subscriber string
	Err        error
}

func (e *FanoutError) Error() string {
	return fmt.Sprintf("dataservice: fan-out of version %d to %s: %v", e.Version, e.Subscriber, e.Err)
}

func (e *FanoutError) Unwrap() error { return e.Err }

// historyCap bounds the per-session resume ring. 512 ops of lag is far
// beyond any reconnect window the chaos suite exercises; beyond it a
// returning subscriber falls back to a full snapshot.
const historyCap = 512

// histOp is one retained committed op.
type histOp struct {
	version uint64
	op      scene.Op
}

// opHistory is a contiguous ring of the most recent committed ops.
type opHistory struct {
	ops []histOp
}

func (h *opHistory) push(version uint64, op scene.Op) {
	if len(h.ops) > 0 && h.ops[len(h.ops)-1].version+1 != version {
		// A discontinuity (e.g. a recovered session resuming at a later
		// version) invalidates the ring; restart it.
		h.ops = h.ops[:0]
	}
	h.ops = append(h.ops, histOp{version, op})
	if len(h.ops) > historyCap {
		h.ops = h.ops[len(h.ops)-historyCap:]
	}
}

// since returns the ops covering (v, latest] and true when the ring is
// contiguous from v+1; otherwise false and the caller must fall back to
// a snapshot bootstrap.
func (h *opHistory) since(v, latest uint64) ([]histOp, bool) {
	if v == latest {
		return nil, true
	}
	if len(h.ops) == 0 || h.ops[0].version > v+1 || h.ops[len(h.ops)-1].version != latest {
		return nil, false
	}
	start := int(v + 1 - h.ops[0].version)
	if start < 0 || start >= len(h.ops) {
		return nil, false
	}
	return append([]histOp(nil), h.ops[start:]...), true
}

// CreateSession creates an empty session.
func (s *Service) CreateSession(name string) (*Session, error) {
	if name == "" {
		return nil, fmt.Errorf("dataservice: session name required")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.sessions[name]; exists {
		return nil, fmt.Errorf("dataservice: session %q already exists", name)
	}
	sess := &Session{
		Name:        name,
		svc:         s,
		scene:       scene.New(),
		subscribers: map[string]Subscriber{},
		interests:   map[string]*interestSet{},
		standbyAcks: map[string]uint64{},
	}
	cam := raster.DefaultCamera()
	sess.camera = cameraState(cam)
	s.sessions[name] = sess
	return sess, nil
}

// cameraState converts without importing renderservice (avoiding a cycle).
func cameraState(cam raster.Camera) transport.CameraState {
	return transport.CameraState{
		Eye:    [3]float64{cam.Eye.X, cam.Eye.Y, cam.Eye.Z},
		Target: [3]float64{cam.Target.X, cam.Target.Y, cam.Target.Z},
		Up:     [3]float64{cam.Up.X, cam.Up.Y, cam.Up.Z},
		FovY:   cam.FovY,
		Near:   cam.Near,
		Far:    cam.Far,
	}
}

// CreateSessionFromOBJ imports a Wavefront OBJ stream (the paper's model
// import path) as a single mesh node under the root.
func (s *Service) CreateSessionFromOBJ(name string, r io.Reader) (*Session, error) {
	mesh, err := objply.ReadOBJ(r)
	if err != nil {
		return nil, fmt.Errorf("dataservice: import %q: %w", name, err)
	}
	if mesh.Normals == nil {
		mesh.ComputeNormals()
	}
	return s.CreateSessionFromMesh(name, name, mesh)
}

// CreateSessionFromMesh creates a session seeded with one mesh node.
func (s *Service) CreateSessionFromMesh(name, nodeName string, mesh *geom.Mesh) (*Session, error) {
	sess, err := s.CreateSession(name)
	if err != nil {
		return nil, err
	}
	_, err = sess.AddMesh(nodeName, mesh, mathx.Identity())
	if err != nil {
		return nil, err
	}
	// Frame the camera on the imported data.
	cam := raster.DefaultCamera().FitToBounds(mesh.Bounds(), mathx.V3(0.3, 0.25, 1))
	sess.SetCamera(cameraState(cam), "")
	return sess, nil
}

// RemoveSession drops a hosted session — the gateway tier calls this
// after a session migrates to another node so a stale copy can never be
// served (its update stream, subscribers and history go with it). The
// removed session object stays usable by anyone still holding it, but
// the service will no longer resolve its name. Removing an unknown
// session is a no-op: rebalance passes are idempotent.
func (s *Service) RemoveSession(name string) {
	s.mu.Lock()
	delete(s.sessions, name)
	s.mu.Unlock()
}

// Session returns a hosted session by name.
func (s *Service) Session(name string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[name]
	return sess, ok
}

// SessionNames lists hosted sessions, sorted.
func (s *Service) SessionNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for n := range s.sessions {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AddMesh attaches a mesh node under the root and fans out the update.
func (sess *Session) AddMesh(name string, mesh *geom.Mesh, tr mathx.Mat4) (scene.NodeID, error) {
	sess.mu.Lock()
	id := sess.scene.AllocID()
	sess.mu.Unlock()
	op := &scene.AddNodeOp{
		Parent:    scene.RootID,
		ID:        id,
		Name:      name,
		Transform: tr,
		Payload:   &scene.MeshPayload{Mesh: mesh},
	}
	if err := sess.ApplyUpdate(op, ""); err != nil {
		return 0, err
	}
	return id, nil
}

// AllocID reserves a node ID on the authoritative scene (clients build
// AddNode ops with it).
func (sess *Session) AllocID() scene.NodeID {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.scene.AllocID()
}

// Scene runs fn with the authoritative scene under the session lock.
// The scene must not be retained or mutated; use ApplyUpdate to change it.
func (sess *Session) Scene(fn func(sc *scene.Scene)) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	fn(sess.scene)
}

// InstallScene replaces the authoritative scene wholesale — the
// replication path installing a bootstrap or resync snapshot from a
// primary. The op-history ring is reset (it described the old scene).
func (sess *Session) InstallScene(sc *scene.Scene) {
	sess.mu.Lock()
	sess.scene = sc
	sess.history.ops = sess.history.ops[:0]
	sess.mu.Unlock()
}

// Snapshot returns a deep copy of the authoritative scene.
func (sess *Session) Snapshot() *scene.Scene {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.scene.Clone()
}

// Version returns the scene version.
func (sess *Session) Version() uint64 {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.scene.Version
}

// ApplyUpdate applies an op to the authoritative scene, records it in
// the audit trail and the durable journal, and fans it out to every
// subscriber except origin (which already applied it locally). On a
// read-only standby session it refuses with ErrReadOnly; the
// replication path uses ApplyReplicated instead. A *FanoutError means
// the op is committed and one subscriber missed it; any other error
// means it is not.
func (sess *Session) ApplyUpdate(op scene.Op, origin string) error {
	return sess.applyUpdate(op, origin, false)
}

// ApplyReplicated applies an op arriving over the replication stream
// from the primary. It bypasses the read-only guard — a standby must
// keep following its primary right up until promotion.
func (sess *Session) ApplyReplicated(op scene.Op, origin string) error {
	return sess.applyUpdate(op, origin, true)
}

func (sess *Session) applyUpdate(op scene.Op, origin string, replicated bool) error {
	// The op is encoded once, before the lock, behind room for the
	// journal's record header: the audit trail, the journal and every
	// subscriber are handed these bytes.
	rec, err := marshal.AppendOp(make([]byte, wal.RecordRoom), op)
	if err != nil {
		return err
	}
	version, targets, err := sess.commit(op, rec, origin, replicated)
	if err != nil {
		return err
	}
	var firstErr error
	for _, tg := range targets {
		err := tg.sub.SendUpdate(Update{Op: op, Version: version, Filtered: tg.filtered, Wire: rec[wal.RecordRoom:]})
		if err == nil {
			continue
		}
		sess.svc.cfg.Metrics.Counter(sess.svc.cfg.Name, "fanout_errors_total", telemetry.PeerLabel(tg.name)).Inc()
		if firstErr == nil {
			firstErr = &FanoutError{Version: version, Subscriber: tg.name, Err: err}
		}
	}
	return firstErr
}

// fanoutTarget is one subscriber a commit must reach.
type fanoutTarget struct {
	name string
	sub  Subscriber
	// Interest-filtered subscribers miss ops by design, so their
	// stream carries no version tags (a gap there is not a fault).
	filtered bool
}

// commit is applyUpdate's locked half: apply, audit, journal (rec is the
// op's encoding behind wal.RecordRoom), history, and the subscribers to
// fan out to once the lock is gone.
func (sess *Session) commit(op scene.Op, rec []byte, origin string, replicated bool) (version uint64, targets []fanoutTarget, err error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.readOnly && !replicated {
		return 0, nil, fmt.Errorf("%w: session %q", ErrReadOnly, sess.Name)
	}
	if err := sess.scene.ApplyOp(op); err != nil {
		return 0, nil, err
	}
	if r := sess.recorder; r != nil {
		if r.err == nil {
			r.err = wal.WriteOp(r.w, rec, sess.scene.Version, sess.svc.cfg.Clock.Now())
		}
		if r.err != nil {
			return 0, nil, fmt.Errorf("dataservice: audit append: %w", r.err)
		}
	}
	if sess.journal != nil {
		if err := sess.journal.append(sess, rec); err != nil {
			return 0, nil, fmt.Errorf("%w: append: %w", ErrJournalFault, err)
		}
	}
	version = sess.scene.Version
	sess.history.push(version, op)
	for name, sub := range sess.subscribers {
		if name != origin && sess.wantsOp(name, op) {
			targets = append(targets, fanoutTarget{name, sub, sess.interests[name] != nil})
		}
	}
	return version, targets, nil
}

// SetCamera updates the shared camera and fans it out (collaborating
// render services share the camera so framebuffers align, §3.1.2).
func (sess *Session) SetCamera(cam transport.CameraState, origin string) error {
	sess.mu.Lock()
	sess.camera = cam
	subs := make(map[string]Subscriber, len(sess.subscribers))
	for name, sub := range sess.subscribers {
		if name != origin {
			subs[name] = sub
		}
	}
	sess.mu.Unlock()
	var firstErr error
	for name, sub := range subs {
		if err := sub.SendCamera(cam); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("dataservice: camera fan-out to %s: %w", name, err)
		}
	}
	return firstErr
}

// Camera returns the shared camera.
func (sess *Session) Camera() transport.CameraState {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.camera
}

// Subscribe registers a named subscriber and returns a bootstrap
// snapshot of the current scene. Names must be unique within a session.
func (sess *Session) Subscribe(name string, sub Subscriber) (*scene.Scene, error) {
	_, snapshot, _, err := sess.subscribeSince(name, sub, 0, false)
	return snapshot, err
}

// ReplayOp is one op returned by SubscribeSince for gap-only resync.
type ReplayOp struct {
	Version uint64
	Op      scene.Op
}

// SubscribeSince registers a subscriber that may already hold a replica
// at scene version since. When the session's op history is contiguous
// from since+1, it returns the missed ops (possibly empty) and a nil
// snapshot — the subscriber resyncs only the gap. Otherwise it falls
// back to Subscribe semantics and returns a full bootstrap snapshot.
// The returned version is the authoritative version the subscriber will
// be at after applying what it was given.
func (sess *Session) SubscribeSince(name string, sub Subscriber, since uint64) (ops []ReplayOp, snapshot *scene.Scene, version uint64, err error) {
	return sess.subscribeSince(name, sub, since, true)
}

// subscribeSince implements SubscribeSince; count selects whether the
// bootstrap lands in BootstrapStats. Client-facing paths count;
// replica seeding (the Mirror) does not, so the stats stay a pure
// client-visible observable the chaos tests can assert exactly.
func (sess *Session) subscribeSince(name string, sub Subscriber, since uint64, count bool) (ops []ReplayOp, snapshot *scene.Scene, version uint64, err error) {
	if name == "" {
		return nil, nil, 0, fmt.Errorf("dataservice: subscriber name required")
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if _, dup := sess.subscribers[name]; dup {
		return nil, nil, 0, fmt.Errorf("dataservice: subscriber %q already attached", name)
	}
	sess.subscribers[name] = sub
	version = sess.scene.Version
	// since == 0 means "no replica": always a full bootstrap.
	if since > 0 && since <= version {
		if tail, ok := sess.history.since(since, version); ok {
			if count {
				sess.resumesServed++
			}
			for _, h := range tail {
				ops = append(ops, ReplayOp{Version: h.version, Op: h.op})
			}
			return ops, nil, version, nil
		}
	}
	if count {
		sess.snapshotsServed++
	}
	return nil, sess.scene.Clone(), version, nil
}

// BootstrapStats reports how many subscriber bootstraps were served as
// full snapshots vs. gap-only resumes (including resync snapshots).
func (sess *Session) BootstrapStats() (snapshots, resumes uint64) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.snapshotsServed, sess.resumesServed
}

// noteSnapshot counts a resync snapshot served outside SubscribeSince.
func (sess *Session) noteSnapshot() {
	sess.mu.Lock()
	sess.snapshotsServed++
	sess.mu.Unlock()
}

// SetReadOnly marks or unmarks the session as a standby: while set,
// ApplyUpdate refuses external writes with ErrReadOnly and only the
// replication stream (ApplyReplicated) may change the scene.
func (sess *Session) SetReadOnly(ro bool) {
	sess.mu.Lock()
	sess.readOnly = ro
	sess.mu.Unlock()
}

// IsReadOnly reports whether the session refuses external writes.
func (sess *Session) IsReadOnly() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.readOnly
}

// RecordStandbyAck notes that standby name has applied the op stream
// through version.
func (sess *Session) RecordStandbyAck(name string, version uint64) {
	sess.mu.Lock()
	if version > sess.standbyAcks[name] {
		sess.standbyAcks[name] = version
	}
	sess.mu.Unlock()
}

// StandbyAcks returns the highest acknowledged version per standby.
func (sess *Session) StandbyAcks() map[string]uint64 {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	out := make(map[string]uint64, len(sess.standbyAcks))
	for k, v := range sess.standbyAcks {
		out[k] = v
	}
	return out
}

// Unsubscribe removes a subscriber.
func (sess *Session) Unsubscribe(name string) {
	sess.mu.Lock()
	delete(sess.subscribers, name)
	delete(sess.interests, name)
	sess.mu.Unlock()
}

// SubscriberNames lists attached subscribers, sorted.
func (sess *Session) SubscriberNames() []string {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	var out []string
	for n := range sess.subscribers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// connSubscriber adapts a transport.Conn into a Subscriber.
type connSubscriber struct {
	conn *transport.Conn
	sess *Session
	// camMu makes "read the shared camera, send it" one step on this
	// socket. ServeConn's camera after the bootstrap and a SetCamera
	// fan-out come from different goroutines; whichever writes last must
	// not be carrying the older camera.
	camMu sync.Mutex
}

// SendUpdate implements Subscriber: the op travels as MsgSceneOpVer with
// the authoritative version prefixed, so the replica can detect missed
// updates on a lossy or recovering link. An interest-filtered stream
// gets the bare op. Each socket still gets its own versioned copy of the
// commit's bytes; DESIGN.md "Wire coding" says what keeps it.
func (c *connSubscriber) SendUpdate(u Update) error {
	if u.Filtered {
		return c.conn.Send(transport.MsgSceneOp, u.Wire)
	}
	return c.conn.Send(transport.MsgSceneOpVer, transport.PackVersioned(u.Version, u.Wire))
}

// SendCamera implements Subscriber. What goes out is the session's
// camera as it stands when the socket's turn comes, which is cam or
// something newer.
func (c *connSubscriber) SendCamera(transport.CameraState) error {
	c.camMu.Lock()
	defer c.camMu.Unlock()
	return c.conn.SendJSON(transport.MsgCameraUpdate, c.sess.Camera()) //lint:allow lockedio: camMu only orders this socket's camera sends, which queue on the Conn's own write lock anyway
}

// sendSnapshot ships sc to a subscriber in toRegion as a bootstrap or
// resync snapshot, charging its size to the bootstrap-bytes series.
func (sess *Session) sendSnapshot(conn *transport.Conn, sc *scene.Scene, toRegion string) error {
	snap, err := marshal.AppendScene(nil, sc)
	if err != nil {
		return err
	}
	sess.noteBootstrapBytes(int64(len(snap)), toRegion)
	return conn.Send(transport.MsgSceneSnapshot, snap)
}

// ServeConn runs the data-service side of a direct-socket subscription:
// hello, bootstrap snapshot, then a receive loop applying the peer's
// updates while the fan-out path pushes everyone else's. Returns when
// the peer says Bye or the socket fails.
//
// Ordering on the socket is the follower's job, not this function's.
// The subscriber joins the fan-out under the session lock but its
// bootstrap (and any later resync snapshot) is marshalled and sent
// outside it — a lock held across socket I/O would stall every commit
// behind one slow link — so a commit can put MsgSceneOpVer(V+1) on the
// wire ahead of MsgSceneSnapshot(V). internal/follow holds such ops and
// drains them after the install; TestFollowerConformance and
// TestSubscribeWhileCommitting pin that.
func (s *Service) ServeConn(rw io.ReadWriter) error {
	conn, hello, err := transport.Accept(rw)
	if err != nil {
		return err
	}
	sess, ok := s.Session(hello.Session)
	if !ok {
		err := fmt.Errorf("no session %q on data service %s", hello.Session, s.cfg.Name)
		conn.Refuse(err)
		return fmt.Errorf("dataservice: %w", err)
	}

	sub := &connSubscriber{conn: conn, sess: sess}
	ops, snapshot, version, err := sess.SubscribeSince(hello.Name, sub, hello.SinceVersion)
	if err != nil {
		conn.Refuse(err)
		return err
	}
	defer sess.Unsubscribe(hello.Name)

	if snapshot != nil {
		if err := sess.sendSnapshot(conn, snapshot, hello.Region); err != nil {
			return err
		}
	} else {
		// The subscriber's replica is close enough to resume: confirm,
		// then replay only the gap as versioned ops.
		if err := conn.SendJSON(transport.MsgResumeOK, transport.ResumeInfo{Version: version, Since: hello.SinceVersion}); err != nil {
			return err
		}
		var wire []byte
		for _, rop := range ops {
			if wire, err = marshal.AppendOp(wire[:0], rop.Op); err != nil {
				return err
			}
			if err := sub.SendUpdate(Update{Op: rop.Op, Version: rop.Version, Wire: wire}); err != nil {
				return err
			}
		}
	}
	if err := sub.SendCamera(sess.Camera()); err != nil {
		return err
	}

	for {
		t, payload, err := conn.Receive()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		switch t {
		case transport.MsgBye:
			return nil
		case transport.MsgSceneOp:
			op, err := marshal.DecodeOp(payload)
			if err != nil {
				return err
			}
			// A fan-out miss is not the author's failure: the op is committed.
			if err := sess.ApplyUpdate(op, hello.Name); err != nil && !errors.As(err, new(*FanoutError)) {
				if serr := conn.Refuse(err); serr != nil {
					return serr
				}
			}
		case transport.MsgCameraUpdate:
			var cs transport.CameraState
			if err := transport.DecodeJSON(payload, &cs); err != nil {
				return err
			}
			if err := sess.SetCamera(cs, hello.Name); err != nil {
				return err
			}
		case transport.MsgSetInterest:
			var si transport.SetInterest
			if err := transport.DecodeJSON(payload, &si); err != nil {
				return err
			}
			var ids []scene.NodeID
			for _, id := range si.NodeIDs {
				ids = append(ids, scene.NodeID(id))
			}
			if err := sess.SetInterest(hello.Name, ids); err != nil {
				if serr := conn.Refuse(err); serr != nil {
					return serr
				}
			}
		case transport.MsgLoadReport:
			var lr transport.LoadReport
			if err := transport.DecodeJSON(payload, &lr); err != nil {
				return err
			}
			sess.handleLoadReport(lr)
		case transport.MsgVersionQuery:
			if err := conn.SendJSON(transport.MsgVersionReport, transport.VersionReport{Version: sess.Version()}); err != nil {
				return err
			}
		case transport.MsgResyncRequest:
			// The replica detected a gap: ship a fresh bootstrap snapshot.
			sess.noteSnapshot()
			if err := sess.sendSnapshot(conn, sess.Snapshot(), hello.Region); err != nil {
				return err
			}
		case transport.MsgStandbyAck:
			var vr transport.VersionReport
			if err := transport.DecodeJSON(payload, &vr); err != nil {
				return err
			}
			sess.RecordStandbyAck(hello.Name, vr.Version)
		case transport.MsgTelemetryQuery:
			if err := conn.SendJSON(transport.MsgTelemetryReport, s.cfg.Metrics.Snapshot()); err != nil {
				return err
			}
		default:
			// Ignore messages this role does not handle.
		}
	}
}
