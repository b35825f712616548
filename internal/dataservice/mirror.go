package dataservice

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/follow"
	"repro/internal/netsim"
	"repro/internal/scene"
	"repro/internal/transport"
)

// Data-service mirroring (§6): "we will consider the distribution of the
// data across several data servers ... and also support a fail-safe
// mechanism, where data servers could mirror each other." A Mirror
// subscribes a backup data service's session to a primary session: every
// update and camera change is applied to the backup's own authoritative
// copy, which therefore stays one fan-out behind at most. When the
// primary dies, Promote detaches the mirror and the backup session keeps
// serving — same name, same scene, same version.
//
// The mirror is the in-process transport of the op-stream follower: its
// outbox on the primary carries the bootstrap first and every op after it
// in commit order, and a follow.Sequencer (under mu) applies them to a
// Backup. The fan-out loses nothing, so there is no redial: a gap is a
// sticky error.
type Mirror struct {
	primary *Session
	backup  *Backup
	ob      *outbox // its outbox on the primary

	mu       sync.Mutex
	seq      *follow.Sequencer
	applyErr error
}

// MirrorSessionSince attaches backup service's session as a mirror of
// primary, resuming from an existing copy when the backup already
// holds the session: if the primary's op history is contiguous from
// the backup's version, only the gap is replayed (resumed true) —
// the re-replication path after a promotion or heal, where shipping a
// full snapshot would waste the surviving copy. Otherwise the backup
// session is (re)seeded with a full bootstrap snapshot.
func MirrorSessionSince(primary *Session, backupSvc *Service) (m *Mirror, resumed bool, err error) {
	if primary == nil || backupSvc == nil {
		return nil, false, fmt.Errorf("dataservice: mirror needs a primary session and a backup service")
	}
	if backupSvc == primary.svc {
		return nil, false, fmt.Errorf("dataservice: session %q cannot mirror onto its own service", primary.Name)
	}
	m = &Mirror{primary: primary, backup: NewBackup(backupSvc, primary.Name)}
	m.seq = follow.NewSequencer(m.backup)
	m.ob = &outbox{name: "mirror:" + backupSvc.Name(), sub: m, region: backupSvc.Region()}
	sent, resumed, err := primary.queueBase(m.ob, m.backup.Version(), nil)
	if err != nil {
		return nil, false, err
	}
	if err := waitAll(sent); err != nil {
		return nil, false, fmt.Errorf("dataservice: mirror bootstrap: %w", err)
	}
	return m, resumed, nil
}

// noteBootstrapBytes charges n bootstrap bytes shipped toward toRegion
// to the local or cross series.
func (sess *Session) noteBootstrapBytes(n int64, toRegion string) {
	metrics := sess.svc.cfg.Metrics
	if netsim.CrossRegion(sess.svc.cfg.Region, toRegion) {
		metrics.Counter(sess.svc.cfg.Name, "bootstrap_bytes_total", "cross").Add(n)
	} else {
		metrics.Counter(sess.svc.cfg.Name, "bootstrap_bytes_total", "local").Add(n)
	}
}

// sendBase lands the mirror's bootstrap: the snapshot, or the word that
// the backup's copy resumes.
func (m *Mirror) sendBase(b *base) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if b.scene == nil {
		m.seq.Resume()
		return nil
	}
	m.applyErr = m.seq.Install(b.scene)
	return m.applyErr
}

// SendUpdate implements Subscriber: replicate the op onto the backup in
// version order. A failure cuts the mirror's outbox, so no op follows
// it, and it is kept: the copy can no longer be trusted to converge (see
// AckedVersion).
func (m *Mirror) SendUpdate(u Update) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.applyErr = m.seq.Offer(u.Version, u.Op)
	return m.applyErr
}

// SendCamera implements Subscriber.
func (m *Mirror) SendCamera(cam transport.CameraState) error { return m.backup.SetCamera(cam) }

// AckedVersion returns the version the backup has applied through. A
// mirror with a replication failure reports 0: its copy can no longer
// be trusted as caught up.
func (m *Mirror) AckedVersion() uint64 {
	m.mu.Lock()
	failed := m.applyErr != nil
	m.mu.Unlock()
	if failed {
		return 0
	}
	return m.backup.Version()
}

// Err reports a replication failure, if any occurred.
func (m *Mirror) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applyErr
}

// Promote detaches from the primary and returns the backup session as
// the new authority. Safe to call after the primary has died — the
// detach is local state on the (possibly defunct) primary.
func (m *Mirror) Promote() (*Session, error) {
	sess, err := m.backup.Promote()
	if err != nil {
		return nil, err
	}
	m.Detach()
	return sess, nil
}

// Detach stops following the primary without promoting: the backup
// keeps its copy, read-only and frozen once Detach returns, which a
// later MirrorSessionSince can resume gap-only. A no-op after Promote.
func (m *Mirror) Detach() {
	m.ob.sending.Lock()
	m.ob.cut(errDetached)
	m.ob.sending.Unlock()
}

// errDetached cuts a detached mirror's outbox.
var errDetached = errors.New("dataservice: mirror detached")

// Backup is a backup copy of a session (§6: "data servers could mirror
// each other"): the session of that name on the backup's own data
// service, kept by an op-stream follower and read-only until promoted.
// It is the follow.Target of both replication transports — a Mirror in
// process, failover.Standby over a socket — so one rule holds for both:
// the copy installs snapshots, applies ops through ApplyReplicated and
// sets the camera; a delivery the backup's own subscribers miss is
// theirs, counted on the backup service's fanout_errors_total{peer} like
// any session's miss, so it neither fails the write nor ends the
// replication; and once promoted, the copy takes nothing more from its
// primary.
type Backup struct {
	svc  *Service
	name string

	mu       sync.Mutex
	sess     *Session
	promoted bool
}

// NewBackup returns the backup copy of session name on svc, adopting the
// session svc already holds (made read-only) or, when it holds none,
// creating one at the first Install.
func NewBackup(svc *Service, name string) *Backup {
	b := &Backup{svc: svc, name: name}
	if sess, ok := svc.Session(name); ok {
		sess.SetReadOnly(true)
		b.sess = sess
	}
	return b
}

// Session returns the copy; nil before the first install.
func (b *Backup) Session() *Session {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sess
}

// Promoted reports whether Promote has run.
func (b *Backup) Promoted() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.promoted
}

// Version returns the copy's scene version; 0 with no copy.
func (b *Backup) Version() uint64 {
	if sess := b.Session(); sess != nil {
		return sess.Version()
	}
	return 0
}

// Install makes sc the copy, creating the session read-only if there is
// none.
func (b *Backup) Install(sc *scene.Scene) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.promoted {
		return b.errPromoted()
	}
	if b.sess == nil {
		sess, err := b.svc.CreateSession(b.name)
		if err != nil {
			return fmt.Errorf("dataservice: backup session: %w", err)
		}
		sess.SetReadOnly(true)
		b.sess = sess
	}
	b.sess.InstallScene(sc)
	return nil
}

// Apply applies the next op; an error means the copy did not commit it.
// Once promoted the session is writable and ApplyReplicated refuses it.
func (b *Backup) Apply(op scene.Op) error {
	return b.Session().ApplyReplicated(op)
}

// SetCamera sets the copy's camera; a subscriber's miss is its own.
func (b *Backup) SetCamera(cam transport.CameraState) error {
	if b.Promoted() {
		return b.errPromoted()
	}
	_ = b.Session().SetCamera(cam, "")
	return nil
}

// Promote makes the copy the authority: writable at exactly the version
// it replicated, and deaf to the primary it replaces.
func (b *Backup) Promote() (*Session, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.promoted:
		return nil, b.errPromoted()
	case b.sess == nil:
		return nil, fmt.Errorf("dataservice: no backup copy of %q to promote", b.name)
	}
	b.promoted = true
	b.sess.SetReadOnly(false)
	return b.sess, nil
}

func (b *Backup) errPromoted() error {
	return fmt.Errorf("dataservice: backup copy of %q already promoted", b.name)
}
