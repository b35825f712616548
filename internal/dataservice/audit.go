package dataservice

import (
	"fmt"
	"io"

	"repro/internal/dataservice/wal"
)

// The audit trail (§3.1.1): "the data are intermittently streamed to
// disk, recording any changes that are made in the form of an audit
// trail. A recorded session may be played back at a later date; this
// enables users to append to a recorded session, collaborating
// asynchronously with previous users." On disk it is a wal segment — the
// scene when recording started, then one timestamped record per op —
// written unsynced and never compacted.

// recorder is a session's audit sink. A failed write poisons it: records
// after a torn one would only be unreadable.
type recorder struct {
	w   io.Writer
	err error
}

// StartRecording attaches an audit recorder to the session; every
// subsequent update is appended. The base snapshot is the current scene.
func (sess *Session) StartRecording(w io.Writer) error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.recorder != nil {
		return fmt.Errorf("dataservice: session %q already recording", sess.Name)
	}
	if err := wal.Begin(w, sess.scene, sess.scene.Version, sess.svc.cfg.Clock.Now()); err != nil {
		return fmt.Errorf("dataservice: audit header: %w", err)
	}
	sess.recorder = &recorder{w: w}
	return nil
}

// StopRecording detaches the recorder.
func (sess *Session) StopRecording() {
	sess.mu.Lock()
	sess.recorder = nil
	sess.mu.Unlock()
}

// ReadRecording loads an audit trail. A recording is only read after a
// clean close, so a torn tail — which journal recovery survives — is an
// error here.
func ReadRecording(r io.Reader) (*wal.Recovered, error) {
	rec, err := wal.Scan(r)
	if err != nil {
		return nil, fmt.Errorf("dataservice: audit read: %w", err)
	}
	if rec.Torn != nil {
		return nil, fmt.Errorf("dataservice: audit trail ends inside a record: %w", rec.Torn)
	}
	return rec, nil
}

// CreateSessionFromRecording loads a recorded session for asynchronous
// collaboration: the replayed scene becomes a live session that new users
// can append to.
func (s *Service) CreateSessionFromRecording(name string, r io.Reader) (*Session, error) {
	rec, err := ReadRecording(r)
	if err != nil {
		return nil, err
	}
	final, err := rec.Scene()
	if err != nil {
		return nil, err
	}
	sess, err := s.CreateSession(name)
	if err != nil {
		return nil, err
	}
	sess.mu.Lock()
	sess.scene = final
	sess.mu.Unlock()
	return sess, nil
}
