package dataservice

import (
	"fmt"

	"repro/internal/dataservice/wal"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/scene"
)

// The durable session journal: where the audit trail (audit.go) exists
// for playback and asynchronous collaboration, the journal exists so
// the session itself survives a data-service crash. Every committed op
// is fsynced to a wal.Store before ApplyUpdate returns, and
// RecoverSession replays the log to the exact version of the last
// committed record — the paper's "persistent session" made literal.

// journalSink binds a wal.Log to a session. Appends happen under the
// session lock (the commit order the journal must preserve), so the
// compaction snapshot closure can clone the scene directly.
type journalSink struct {
	log *wal.Log
}

// append journals one just-applied op from its commit's encoding (rec,
// behind wal.RecordRoom). Caller holds sess.mu; the scene version has
// already been bumped by ApplyOp. The append — including the fsync
// inside wal.Log.AppendEncoded — is timed on the session clock so the
// wal_append_ns histogram exposes commit-path stalls.
func (j *journalSink) append(sess *Session, rec []byte) error {
	cfg := sess.svc.cfg
	start := cfg.Clock.Now()
	err := j.log.AppendEncoded(rec, sess.scene.Version, start, func() *scene.Scene {
		return sess.scene.Clone()
	})
	cfg.Metrics.Histogram(cfg.Name, "wal_append_ns", "").Observe(cfg.Clock.Now().Sub(start))
	if err == nil {
		cfg.Metrics.Counter(cfg.Name, "wal_records_total", "").Inc()
	} else {
		// A failed commit is a disk event worth counting, and the sticky
		// log error means the whole journal is now poisoned — surface
		// both so the heartbeat can report storage degradation.
		cfg.Metrics.Counter(cfg.Name, "wal_append_faults_total", "").Inc()
		cfg.Metrics.Gauge(cfg.Name, "wal_poisoned", "").Set(1)
	}
	return err
}

// StartJournal attaches a durable write-ahead journal to the session,
// writing an initial checkpoint of the current scene. compactEvery
// bounds segment growth: after that many ops the log is rewritten as a
// fresh checkpoint (0 = never compact). Every subsequent ApplyUpdate
// commits its op to the journal — fsynced — before returning.
func (sess *Session) StartJournal(store wal.Store, compactEvery int) error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.journal != nil {
		return fmt.Errorf("dataservice: session %q already journaling", sess.Name)
	}
	log, err := wal.Create(store, sess.scene, sess.scene.Version, sess.svc.cfg.Clock.Now())
	if err != nil {
		return fmt.Errorf("dataservice: start journal: %w", err)
	}
	log.CompactEvery = compactEvery
	sess.journal = &journalSink{log: log}
	return nil
}

// StopJournal detaches and closes the journal.
func (sess *Session) StopJournal() error {
	sess.mu.Lock()
	j := sess.journal
	sess.journal = nil
	sess.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.log.Close()
}

// JournalVersion returns the last committed journal version (0 when
// not journaling).
func (sess *Session) JournalVersion() uint64 {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.journal == nil {
		return 0
	}
	return sess.journal.log.Version()
}

// RecoverSession rebuilds a crashed session from its journal: the
// checkpoint is loaded, the op tail is replayed to the exact version of
// the last committed record (a torn final record — the write the crash
// interrupted — is discarded, reported in Recovered.Torn), and the
// journal is re-attached after compacting the recovered state into a
// fresh checkpoint. The recovered session keeps the journal's scene
// version, so returning subscribers resume exactly where the crash left
// them.
func (s *Service) RecoverSession(name string, store wal.Store, compactEvery int) (*Session, *wal.Recovered, error) {
	rec, err := wal.Recover(store)
	if err != nil {
		return nil, nil, fmt.Errorf("dataservice: recover session %q: %w", name, err)
	}
	sc, err := rec.Scene()
	if err != nil {
		return nil, nil, fmt.Errorf("dataservice: recover session %q: %w", name, err)
	}
	sess, err := s.CreateSession(name)
	if err != nil {
		return nil, nil, err
	}
	sess.mu.Lock()
	sess.scene = sc
	cam := raster.DefaultCamera()
	if b := sc.Bounds(); !b.IsEmpty() {
		cam = cam.FitToBounds(b, mathx.V3(0.3, 0.25, 1))
	}
	sess.camera = cameraState(cam)
	sess.mu.Unlock()
	if err := sess.StartJournal(store, compactEvery); err != nil {
		return nil, nil, err
	}
	return sess, rec, nil
}
