package dataservice

import (
	"fmt"
	"sync"

	"repro/internal/follow"
	"repro/internal/marshal"
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
// The mirror is the in-process transport of the op-stream follower: the
// primary's fan-out calls SendUpdate from whichever goroutine committed,
// so ops can arrive before the bootstrap has been installed or ahead of
// a slower sibling, and a follow.Sequencer (under mu) puts them in
// version order.
type Mirror struct {
	primary *Session
	backup  backupCopy

	mu       sync.Mutex
	seq      *follow.Sequencer
	promoted bool
	applyErr error
}

// backupCopy is the follow.Target of a mirror: the backup service's
// session, written through the replication path (which a read-only
// standby session still accepts) under the mirror's subscriber name.
type backupCopy struct {
	sess    *Session
	subName string
}

func (c backupCopy) Version() uint64 { return c.sess.Version() }

func (c backupCopy) Install(sc *scene.Scene) error {
	c.sess.InstallScene(sc)
	return nil
}

func (c backupCopy) Apply(op scene.Op) error { return c.sess.ApplyReplicated(op, c.subName) }

func (c backupCopy) SetCamera(cam transport.CameraState) error {
	return c.sess.SetCamera(cam, c.subName)
}

// MirrorSession attaches backup service's new session (with the same
// name) as a mirror of primary. The backup session starts from a
// snapshot and then follows the update stream.
func MirrorSession(primary *Session, backupSvc *Service) (*Mirror, error) {
	m, _, err := MirrorSessionSince(primary, backupSvc)
	return m, err
}

// MirrorSessionSince attaches backup service's session as a mirror of
// primary, resuming from an existing copy when the backup already
// holds the session: if the primary's op history is contiguous from
// the backup's version, only the gap is replayed (resumed true) —
// the re-replication path after a promotion or heal, where shipping a
// full snapshot would waste the surviving copy. Otherwise the backup
// session is (re)seeded with a full bootstrap snapshot.
func MirrorSessionSince(primary *Session, backupSvc *Service) (m *Mirror, resumed bool, err error) {
	m, land, err := subscribeMirror(primary, backupSvc)
	if err != nil {
		return nil, false, err
	}
	if resumed, err = land(); err != nil {
		primary.Unsubscribe(m.backup.subName)
		return nil, false, fmt.Errorf("dataservice: mirror bootstrap: %w", err)
	}
	return m, resumed, nil
}

// subscribeMirror is the first half of MirrorSessionSince: it registers
// the mirror with the primary's fan-out, which from then on can deliver
// ops from any committing goroutine. land, the second half, installs the
// bootstrap the primary handed over; the sequencer holds whatever
// arrives in between.
func subscribeMirror(primary *Session, backupSvc *Service) (m *Mirror, land func() (resumed bool, err error), err error) {
	if primary == nil || backupSvc == nil {
		return nil, nil, fmt.Errorf("dataservice: mirror needs a primary session and a backup service")
	}
	backup, adopted := backupSvc.Session(primary.Name)
	if !adopted {
		backup, err = backupSvc.CreateSession(primary.Name)
		if err != nil {
			return nil, nil, fmt.Errorf("dataservice: backup session: %w", err)
		}
	}
	m = &Mirror{primary: primary, backup: backupCopy{backup, "mirror:" + backupSvc.Name()}}
	m.seq = follow.NewSequencer(m.backup)
	since := uint64(0)
	if adopted {
		since = backup.Version()
	}
	// Replica seeding is infrastructure traffic: it charges the
	// bootstrap-bytes series below but stays out of BootstrapStats,
	// which counts client-visible bootstraps only.
	ops, snapshot, version, err := primary.subscribeSince(m.backup.subName, m, since, false)
	if err != nil {
		return nil, nil, err
	}
	return m, func() (bool, error) {
		if snapshot != nil {
			primary.countBootstrapBytes(snapshot, backupSvc.Region())
		}
		err := m.bootstrap(ops, snapshot, version)
		if err == nil {
			err = m.backup.SetCamera(primary.Camera())
		}
		return snapshot == nil, err
	}, nil
}

// bootstrap lands what subscribeSince handed over: the snapshot, or the
// promise that the copy resumes and the ops it was missing.
func (m *Mirror) bootstrap(ops []ReplayOp, snapshot *scene.Scene, version uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if snapshot != nil {
		return m.seq.Install(snapshot)
	}
	if err := m.seq.Resume(version); err != nil {
		return err
	}
	for _, rop := range ops {
		if err := m.seq.Offer(rop.Version, rop.Op); err != nil {
			return err
		}
	}
	return nil
}

// countBootstrapBytes charges a bootstrap snapshot's marshaled size to
// the session's bootstrap-bytes counter, labelled by whether the bytes
// stayed in-region or crossed regions. The partition chaos scenario
// asserts the cross series stays flat while a region is cut.
func (sess *Session) countBootstrapBytes(sc *scene.Scene, toRegion string) {
	sess.noteBootstrapBytes(int64(marshal.SceneSize(sc)), toRegion)
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

// SendUpdate implements Subscriber: replicate the op onto the backup in
// version order. An interest-filtered stream cannot be ordered against
// the copy, so it is refused. A failure is sticky — the copy can no
// longer be trusted to converge (see AckedVersion).
func (m *Mirror) SendUpdate(u Update) error {
	if u.Filtered {
		return fmt.Errorf("dataservice: mirror follows the versioned op stream only")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.promoted {
		return fmt.Errorf("dataservice: mirror already promoted")
	}
	if m.applyErr == nil {
		m.applyErr = m.seq.Offer(u.Version, u.Op)
	}
	return m.applyErr
}

// SendCamera implements Subscriber.
func (m *Mirror) SendCamera(cam transport.CameraState) error {
	return m.backup.SetCamera(cam)
}

// Lag returns how many versions the backup trails the primary (0 when
// fully caught up).
func (m *Mirror) Lag() uint64 {
	p := m.primary.Version()
	b := m.backup.Version()
	if b >= p {
		return 0
	}
	return p - b
}

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

// Backup exposes the standby session (e.g. to attach standby render
// services before a failover).
func (m *Mirror) Backup() *Session { return m.backup.sess }

// Promote detaches from the primary and returns the backup session as
// the new authority. Safe to call after the primary has died — the
// unsubscribe is local state on the (possibly defunct) primary.
func (m *Mirror) Promote() (*Session, error) {
	m.mu.Lock()
	if m.promoted {
		m.mu.Unlock()
		return nil, fmt.Errorf("dataservice: mirror already promoted")
	}
	m.promoted = true
	m.mu.Unlock()
	m.primary.Unsubscribe(m.backup.subName)
	return m.backup.sess, nil
}

// Detach stops following the primary without promoting: the backup
// keeps its (now frozen) copy, which a later MirrorSessionSince can
// resume gap-only. Idempotent with Promote — whichever runs first wins.
func (m *Mirror) Detach() {
	m.mu.Lock()
	m.promoted = true
	m.mu.Unlock()
	m.primary.Unsubscribe(m.backup.subName)
}
