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
// the commit encoded once for its journal and every subscriber alike
// (nil for an op replayed from the history, which keeps ops only). An
// op outside the subscriber's interest goes as a skip: a scene.SkipOp
// whose Wire is empty, so a socket sends the version alone.
type Update struct {
	Op scene.Op
	// Version is the authoritative scene version the op produced.
	Version uint64
	// Wire is Op's marshal encoding, shared with the commit's other
	// consumers: read-only.
	Wire []byte
	// packed is the commit's one versioned payload (see versioned); nil
	// outside a commit's fan-out.
	packed *packedOp
}

// packedOp is a commit's MsgSceneOpVer payload. The commit's outboxes
// may be flushed from several goroutines at once, so whichever socket
// asks first packs it, behind the Once.
type packedOp struct {
	once sync.Once
	b    []byte
}

// versioned returns the MsgSceneOpVer payload: Version ahead of Wire
// (transport.PackVersioned). Every versioned socket of one commit sends
// the same read-only bytes, and a commit with no socket packs nothing.
func (u Update) versioned() []byte {
	if u.packed == nil {
		return transport.PackVersioned(u.Version, u.Wire)
	}
	u.packed.once.Do(func() { u.packed.b = transport.PackVersioned(u.Version, u.Wire) })
	return u.packed.b
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
// the shared camera, the subscribers' outboxes and the audit recorder.
type Session struct {
	Name string
	svc  *Service

	mu          sync.Mutex
	scene       *scene.Scene
	camera      transport.CameraState
	subscribers map[string]*outbox
	recorder    *recorder
	journal     *journalSink
	distributor *Distributor

	// history is a bounded ring of recently committed ops so an
	// interrupted subscriber can resume at its last applied version and
	// resync only the gap instead of re-bootstrapping the whole scene.
	history opHistory
	// readOnly marks a backup copy (see Backup): external updates are
	// refused until promotion, and only the replication path applies.
	readOnly bool
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

// historyCap bounds the per-session resume ring. 512 ops of lag is far
// beyond any reconnect window the chaos suite exercises; beyond it a
// returning subscriber falls back to a full snapshot.
const historyCap = 512

// histOp is one retained committed op.
type histOp struct {
	version uint64
	op      scene.Op
}

// opHistory is a ring of the most recent committed ops: it fills to
// historyCap and then each push overwrites the oldest slot, so an op
// that drops out of the ring (its payload included) is unreachable
// from it at once.
type opHistory struct {
	ops  []histOp // at most historyCap, allocated at that capacity
	next int      // once full, the slot of the oldest op: the next overwritten
}

// at returns the i-th retained op, oldest first.
func (h *opHistory) at(i int) histOp { return h.ops[(h.next+i)%len(h.ops)] }

func (h *opHistory) push(version uint64, op scene.Op) {
	if n := len(h.ops); n > 0 && h.at(n-1).version+1 != version {
		// A discontinuity (e.g. a recovered session resuming at a later
		// version) invalidates the ring; restart it.
		h.reset()
	}
	if h.ops == nil {
		h.ops = make([]histOp, 0, historyCap)
	}
	if len(h.ops) < historyCap {
		h.ops = append(h.ops, histOp{version, op})
		return
	}
	h.ops[h.next] = histOp{version, op}
	h.next = (h.next + 1) % historyCap
}

// reset empties the ring, clearing its slots so nothing it held stays
// reachable through it.
func (h *opHistory) reset() {
	clear(h.ops)
	h.ops = h.ops[:0]
	h.next = 0
}

// since returns the ops covering (v, latest] and true when the ring is
// contiguous from v+1; otherwise false and the caller must fall back to
// a snapshot bootstrap.
func (h *opHistory) since(v, latest uint64) ([]histOp, bool) {
	if v == latest {
		return nil, true
	}
	n := len(h.ops)
	if n == 0 || h.at(0).version > v+1 || h.at(n-1).version != latest {
		return nil, false
	}
	start := int(v + 1 - h.at(0).version)
	if start < 0 || start >= n {
		return nil, false
	}
	out := make([]histOp, 0, n-start)
	for i := start; i < n; i++ {
		out = append(out, h.at(i))
	}
	return out, true
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
		subscribers: map[string]*outbox{},
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
// replication path installing a bootstrap snapshot from a primary. The
// op-history ring is reset (it described the old scene).
func (sess *Session) InstallScene(sc *scene.Scene) {
	sess.mu.Lock()
	sess.scene = sc
	sess.history.reset()
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
// subscriber. origin names the op's author; it no longer filters the
// fan-out: an author that subscribes gets its op back in its own stream,
// in commit order, like every other subscriber. On a read-only backup
// session it refuses with ErrReadOnly; the replication path uses
// ApplyReplicated instead. An error means the op is not committed. A
// subscriber that misses a committed op is no error of the author's: the
// miss is counted on fanout_errors_total{peer} and cuts that subscriber,
// whose follower redials and resumes from the history ring.
func (sess *Session) ApplyUpdate(op scene.Op, origin string) error {
	return sess.applyUpdate(op, false)
}

// ApplyReplicated applies an op arriving over the replication stream
// from the primary, to a read-only backup copy only: it bypasses the
// read-only guard, since a backup follows its primary right up until
// promotion, and a writable session — one promoted, or a primary —
// refuses it, so no op from a deposed primary lands after a promotion.
func (sess *Session) ApplyReplicated(op scene.Op) error {
	return sess.applyUpdate(op, true)
}

func (sess *Session) applyUpdate(op scene.Op, replicated bool) error {
	// The op is encoded once, before the lock, behind room for the
	// journal's record header: the audit trail, the journal and every
	// subscriber are handed these bytes, and the versioned sockets one
	// copy of them behind the version.
	rec, err := marshal.AppendOp(make([]byte, wal.RecordRoom), op)
	if err != nil {
		return err
	}
	sent, err := sess.commit(op, rec, replicated)
	if err != nil {
		return err
	}
	sess.fanOut(sent)
	return nil
}

// fanOut waits for the deliveries a commit or a camera change queued,
// counts each miss on fanout_errors_total{peer} and returns the first.
func (sess *Session) fanOut(sent []*delivery) (miss *delivery) {
	for _, d := range sent {
		if d.wait() != nil {
			sess.svc.cfg.Metrics.Counter(sess.svc.cfg.Name, "fanout_errors_total", telemetry.PeerLabel(d.ob.name)).Inc()
			if miss == nil {
				miss = d
			}
		}
	}
	return miss
}

// commit is applyUpdate's locked half: apply, audit, journal (rec is the
// op's encoding behind wal.RecordRoom), history, and the op queued on
// every outbox, as a skip where it is outside the outbox's interest, to
// be sent once the lock is gone.
func (sess *Session) commit(op scene.Op, rec []byte, replicated bool) (sent []*delivery, err error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	switch {
	case sess.readOnly && !replicated:
		return nil, fmt.Errorf("%w: session %q", ErrReadOnly, sess.Name)
	case replicated && !sess.readOnly:
		return nil, fmt.Errorf("dataservice: session %q is writable and takes no replicated op", sess.Name)
	}
	if err := sess.scene.ApplyOp(op); err != nil {
		return nil, err
	}
	if r := sess.recorder; r != nil {
		if r.err == nil {
			r.err = wal.WriteOp(r.w, rec, sess.scene.Version, sess.svc.cfg.Clock.Now())
		}
		if r.err != nil {
			return nil, fmt.Errorf("dataservice: audit append: %w", r.err)
		}
	}
	if sess.journal != nil {
		if err := sess.journal.append(sess, rec); err != nil {
			return nil, fmt.Errorf("%w: append: %w", ErrJournalFault, err)
		}
	}
	version := sess.scene.Version
	sess.history.push(version, op)
	u := Update{Op: op, Version: version, Wire: rec[wal.RecordRoom:], packed: new(packedOp)}
	for _, ob := range sess.subscribers {
		if ob.interest != nil && !ob.interest.wants(op) {
			sent = append(sent, ob.push(delivery{u: Update{Op: scene.SkipOp{}, Version: version, Wire: []byte{}}}))
		} else {
			sent = append(sent, ob.push(delivery{u: u}))
		}
	}
	return sent, nil
}

// SetCamera updates the shared camera and fans it out (collaborating
// render services share the camera so framebuffers align, §3.1.2). Its
// error is a subscriber's miss, counted like an op's: the camera is set.
func (sess *Session) SetCamera(cam transport.CameraState, origin string) error {
	sess.mu.Lock()
	sess.camera = cam
	var sent []*delivery
	for name, ob := range sess.subscribers {
		if name != origin {
			sent = append(sent, ob.push(delivery{cam: &cam}))
		}
	}
	sess.mu.Unlock()
	if miss := sess.fanOut(sent); miss != nil {
		return fmt.Errorf("dataservice: camera fan-out to %s: %w", miss.ob.name, miss.err)
	}
	return nil
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
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := sess.join(&outbox{name: name, sub: sub}); err != nil {
		return nil, err
	}
	sess.snapshotsServed++
	return sess.scene.Clone(), nil
}

// join adds ob to the fan-out. Callers hold sess.mu.
func (sess *Session) join(ob *outbox) error {
	if ob.name == "" {
		return fmt.Errorf("dataservice: subscriber name required")
	}
	if _, dup := sess.subscribers[ob.name]; dup {
		return fmt.Errorf("dataservice: subscriber %q already attached", ob.name)
	}
	ob.sess = sess
	sess.subscribers[ob.name] = ob
	return nil
}

// leave takes ob out of the fan-out, unless a successor under its name
// has taken its place there.
func (sess *Session) leave(ob *outbox) {
	sess.mu.Lock()
	if sess.subscribers[ob.name] == ob {
		delete(sess.subscribers, ob.name)
	}
	sess.mu.Unlock()
}

// queueBase joins ob, whose subscriber takes its bootstrap in its outbox
// (a baseSender), to the fan-out, and in the same step sets its interest
// (none when empty) and queues on it the base its copy continues from and
// the shared camera; it returns what it queued. The base resumes a copy
// at since when the op history reaches back to it and the copy follows
// everything, the ops the copy missed queued after it, and is a snapshot
// otherwise: the history cannot be filtered by the interest set as it
// stood at since, only as it stands now. A socket's snapshot is cloned
// under the lock but encoded outside it: it holds its place in ob's
// queue, the ops committed meanwhile queue behind it, and no commit
// waits for the encoding.
func (sess *Session) queueBase(ob *outbox, since uint64, interest []uint64) (sent []*delivery, resumed bool, err error) {
	sess.mu.Lock()
	if err := sess.join(ob); err != nil {
		sess.mu.Unlock()
		return nil, false, err
	}
	if len(interest) > 0 {
		ob.interest = newInterest(sess.scene, interest)
	}
	b := &base{since: since, version: sess.scene.Version}
	var tail []histOp
	if since > 0 && since <= b.version && ob.interest == nil {
		tail, resumed = sess.history.since(since, b.version)
	}
	served := &sess.resumesServed
	if !resumed {
		b.scene, served = sess.scene.Clone(), &sess.snapshotsServed
		sess.noteBootstrapBytes(int64(marshal.SceneSize(b.scene)), ob.region)
	}
	if ob.socket != nil {
		*served++
	}
	encoding := ob.socket != nil && !resumed
	sent = append(sent, ob.push(delivery{base: b, encoding: encoding}))
	for _, h := range tail {
		sent = append(sent, ob.push(delivery{u: Update{Op: h.op, Version: h.version}}))
	}
	cam := sess.camera
	sent = append(sent, ob.push(delivery{cam: &cam}))
	sess.mu.Unlock()
	if encoding {
		b.wire, b.err = marshal.AppendScene(nil, b.scene)
		ob.mu.Lock()
		sent[0].encoding = false
		ob.mu.Unlock()
	}
	return sent, resumed, nil
}

// BootstrapStats reports how many socket subscribers' bootstraps were
// served as full snapshots vs. gap-only resumes.
func (sess *Session) BootstrapStats() (snapshots, resumes uint64) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.snapshotsServed, sess.resumesServed
}

// SetReadOnly marks or unmarks the session as a backup copy: while set,
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

// outbox is one attached subscriber's stream. Everything the session
// sends it — its bootstrap, the ops after it, camera changes — is queued
// under the session lock, so the queue is in commit order, and sent once
// the lock is gone by one flusher at a time, so the stream is too.
// Whoever queues a delivery waits for it, which keeps a slow
// subscriber's backpressure on the commits that feed it, unless it is
// queued behind a snapshot still being encoded. The first delivery that
// fails cuts the subscriber: a stream with a hole in it is no stream, so
// it leaves the fan-out, its socket is closed and nothing more is written
// to it.
type outbox struct {
	name string
	sub  Subscriber
	sess *Session // the session it joined
	// interest filters its ops (nil: it follows everything); set when it
	// joins and guarded by the session lock.
	interest *interestSet
	// region is where bootstrap bytes are charged.
	region string
	// socket is the subscriber's connection, which a cut closes; nil in
	// process. A socket's snapshots are encoded, and its bootstraps
	// count in BootstrapStats (a mirror's are not a client's).
	socket io.Closer

	mu      sync.Mutex // guards queue and each queued delivery's encoding
	queue   []*delivery
	sending sync.Mutex // held by the one flusher: it serializes this stream's writes
	err     error      // the cut's: the first failed delivery's, or a detach; guarded by sending
}

// delivery is one queued message: an op, a camera change (cam set) or a
// base (base set).
type delivery struct {
	ob   *outbox
	u    Update
	cam  *transport.CameraState
	base *base
	// encoding marks a snapshot base whose bytes are not ready yet;
	// nothing from it on is sent until they are.
	encoding bool
	err      error // how sending it went, once sent
}

// base is the head of a stream a subscriber's copy continues from: a
// snapshot of the scene at version (wire and err its encoding, for a
// socket), or with no scene the word that the copy at since resumes and
// is replayed the ops through version.
type base struct {
	scene          *scene.Scene
	wire           []byte
	err            error
	since, version uint64
}

// baseSender is a Subscriber whose bootstrap travels in its outbox: a
// socket (ServeConn) or a Mirror.
type baseSender interface {
	Subscriber
	sendBase(b *base) error
}

// push queues d. Callers hold the session lock.
func (ob *outbox) push(d delivery) *delivery {
	d.ob = ob
	ob.mu.Lock()
	ob.queue = append(ob.queue, &d)
	ob.mu.Unlock()
	return &d
}

// wait sends what d's outbox has queued, in order, up to a snapshot
// still being encoded, and returns how sending d went: at once, nil,
// when d is queued behind such a snapshot, whose encoder sends it. Once
// a delivery has failed, the outbox is cut: it leaves the fan-out, its
// socket is closed, and every delivery after it returns that error
// unsent.
func (d *delivery) wait() error {
	ob := d.ob
	ob.sending.Lock()
	defer ob.sending.Unlock()
	ob.mu.Lock()
	n := 0
	for n < len(ob.queue) && !ob.queue[n].encoding {
		n++
	}
	// The rest moves to a new array: the sent deliveries, a bootstrap's
	// scene among them, are not to stay reachable from the queue.
	batch := ob.queue[:n]
	ob.queue = append([]*delivery(nil), ob.queue[n:]...)
	ob.mu.Unlock()
	for _, q := range batch {
		if ob.err != nil {
			q.err = ob.err
			continue
		}
		switch {
		case q.base != nil:
			q.err = ob.sub.(baseSender).sendBase(q.base)
		case q.cam != nil:
			q.err = ob.sub.SendCamera(*q.cam)
		default:
			q.err = ob.sub.SendUpdate(q.u)
		}
		if q.err != nil {
			ob.cut(q.err)
		}
	}
	return d.err
}

// cut stops ob at err, unless it is cut already: it leaves the fan-out,
// its socket is closed, and every delivery not yet sent returns err
// unsent. Callers hold ob.sending, so no delivery is being sent.
func (ob *outbox) cut(err error) {
	if ob.err != nil {
		return
	}
	ob.err = err
	ob.sess.leave(ob)
	if ob.socket != nil {
		ob.socket.Close()
	}
}

// waitAll waits for deliveries queued on one outbox and returns the
// first error among them.
func waitAll(sent []*delivery) error {
	var first error
	for _, d := range sent {
		if err := d.wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// connSubscriber adapts a transport.Conn into a Subscriber.
type connSubscriber struct {
	conn *transport.Conn
}

// SendUpdate implements Subscriber: the op travels as MsgSceneOpVer with
// the authoritative version prefixed, so the replica can detect missed
// updates on a lossy or recovering link; the commit packs those bytes
// once for all its sockets. A skip travels as the version alone.
func (c *connSubscriber) SendUpdate(u Update) error {
	if u.Wire == nil {
		wire, err := marshal.AppendOp(nil, u.Op)
		if err != nil {
			return err
		}
		u.Wire = wire
	}
	return c.conn.Send(transport.MsgSceneOpVer, u.versioned())
}

// SendCamera implements Subscriber.
func (c *connSubscriber) SendCamera(cam transport.CameraState) error {
	return c.conn.SendJSON(transport.MsgCameraUpdate, cam)
}

// sendBase sends a snapshot base, or resume-ok for a resumed copy.
func (c *connSubscriber) sendBase(b *base) error {
	switch {
	case b.scene == nil:
		return c.conn.SendJSON(transport.MsgResumeOK, transport.ResumeInfo{Version: b.version, Since: b.since})
	case b.err != nil:
		return b.err
	}
	return c.conn.Send(transport.MsgSceneSnapshot, b.wire)
}

// ServeConn runs the data-service side of a direct-socket subscription:
// hello, then the subscriber's stream — the bootstrap reply (a snapshot,
// or resume-ok and the ops the subscriber's copy missed), the ops
// committed after it and camera changes, all in commit order through the
// subscriber's outbox — while a receive loop applies the peer's own
// updates and answers its requests. An op the peer submits that does not
// commit is answered with MsgError; one that commits is answered by its
// own copy in the peer's stream, whatever other subscribers missed.
// Returns when the peer says Bye or the socket fails; a delivery the
// socket fails closes it (see outbox). A hello's interest holds for the
// connection's life.
func (s *Service) ServeConn(rw io.ReadWriteCloser) error {
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

	ob := &outbox{name: hello.Name, sub: &connSubscriber{conn}, region: hello.Region, socket: rw}
	sent, _, err := sess.queueBase(ob, hello.SinceVersion, hello.Interest)
	if err != nil {
		conn.Refuse(err)
		return err
	}
	defer sess.leave(ob)
	if err := waitAll(sent); err != nil {
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
			// The author's op comes back in its own stream; an error here
			// means it is not committed, and the author is told so.
			if err := sess.ApplyUpdate(op, hello.Name); err != nil {
				if serr := conn.Refuse(err); serr != nil {
					return serr
				}
			}
		case transport.MsgCameraUpdate:
			var cs transport.CameraState
			if err := transport.DecodeJSON(payload, &cs); err != nil {
				return err
			}
			_ = sess.SetCamera(cs, hello.Name) // a miss is the other subscriber's, and counted
		case transport.MsgLoadReport:
			var lr transport.LoadReport
			if err := transport.DecodeJSON(payload, &lr); err != nil {
				return err
			}
			sess.handleLoadReport(lr)
		case transport.MsgTelemetryQuery:
			if err := conn.SendJSON(transport.MsgTelemetryReport, s.cfg.Metrics.Snapshot()); err != nil {
				return err
			}
		default:
			// Ignore messages this role does not handle.
		}
	}
}
