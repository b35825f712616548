package dataservice

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/marshal"
	"repro/internal/scene"
)

// The audit trail (§3.1.1): "the data are intermittently streamed to
// disk, recording any changes that are made in the form of an audit
// trail. A recorded session may be played back at a later date; this
// enables users to append to a recorded session, collaborating
// asynchronously with previous users." The format is a base snapshot
// followed by timestamped ops:
//
//	magic "RAVA" | snapshot | { nanos int64 | opLen uint32 | op }*

const auditMagic = 0x52415641 // "RAVA"

// Recorder streams a session's audit trail to a writer.
type Recorder struct {
	w   io.Writer
	err error
}

// NewRecorder writes the header and base snapshot.
func NewRecorder(w io.Writer, base *scene.Scene) (*Recorder, error) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], auditMagic)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("dataservice: audit header: %w", err)
	}
	snap, err := marshal.AppendScene(nil, base)
	if err != nil {
		return nil, err
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(snap)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return nil, err
	}
	if _, err := w.Write(snap); err != nil {
		return nil, err
	}
	return &Recorder{w: w}, nil
}

// Append records one op, as its marshal encoding, with its wall-clock
// (or virtual) timestamp.
func (r *Recorder) Append(op []byte, at time.Time) error {
	if r.err != nil {
		return r.err
	}
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[:8], uint64(at.UnixNano()))
	binary.BigEndian.PutUint32(hdr[8:], uint32(len(op)))
	if _, r.err = r.w.Write(hdr[:]); r.err == nil {
		_, r.err = r.w.Write(op)
	}
	return r.err
}

// StartRecording attaches an audit recorder to the session; every
// subsequent update is appended. The base snapshot is the current scene.
func (sess *Session) StartRecording(w io.Writer) error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.recorder != nil {
		return fmt.Errorf("dataservice: session %q already recording", sess.Name)
	}
	rec, err := NewRecorder(w, sess.scene)
	if err != nil {
		return err
	}
	sess.recorder = rec
	return nil
}

// StopRecording detaches the recorder.
func (sess *Session) StopRecording() {
	sess.mu.Lock()
	sess.recorder = nil
	sess.mu.Unlock()
}

// TimedOp is one recorded update.
type TimedOp struct {
	At time.Time
	Op scene.Op
}

// Recording is a loaded audit trail.
type Recording struct {
	Base *scene.Scene
	Ops  []TimedOp
}

// ReadRecording loads an audit trail.
func ReadRecording(r io.Reader) (*Recording, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("dataservice: audit read: %w", err)
	}
	if binary.BigEndian.Uint32(hdr[:]) != auditMagic {
		return nil, fmt.Errorf("dataservice: not an audit trail")
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	snapLen := binary.BigEndian.Uint32(lenBuf[:])
	if snapLen > 1<<30 {
		return nil, fmt.Errorf("dataservice: audit snapshot %d bytes too large", snapLen)
	}
	snap := make([]byte, snapLen)
	if _, err := io.ReadFull(r, snap); err != nil {
		return nil, err
	}
	base, err := marshal.DecodeScene(snap)
	if err != nil {
		return nil, err
	}
	rec := &Recording{Base: base}
	for {
		var opHdr [12]byte
		if _, err := io.ReadFull(r, opHdr[:]); err != nil {
			if err == io.EOF {
				return rec, nil
			}
			return nil, fmt.Errorf("dataservice: audit op header: %w", err)
		}
		nanos := int64(binary.BigEndian.Uint64(opHdr[:8]))
		opLen := binary.BigEndian.Uint32(opHdr[8:])
		if opLen > 1<<30 {
			return nil, fmt.Errorf("dataservice: audit op %d bytes too large", opLen)
		}
		opBytes := make([]byte, opLen)
		if _, err := io.ReadFull(r, opBytes); err != nil {
			return nil, err
		}
		op, err := marshal.DecodeOp(opBytes)
		if err != nil {
			return nil, err
		}
		rec.Ops = append(rec.Ops, TimedOp{At: time.Unix(0, nanos), Op: op})
	}
}

// Replay reconstructs the final scene by applying every recorded op to
// the base snapshot.
func (rec *Recording) Replay() (*scene.Scene, error) {
	s := rec.Base.Clone()
	for i, top := range rec.Ops {
		if err := s.ApplyOp(top.Op); err != nil {
			return nil, fmt.Errorf("dataservice: replay op %d: %w", i, err)
		}
	}
	return s, nil
}

// CreateSessionFromRecording loads a recorded session for asynchronous
// collaboration: the replayed scene becomes a live session that new users
// can append to.
func (s *Service) CreateSessionFromRecording(name string, r io.Reader) (*Session, error) {
	rec, err := ReadRecording(r)
	if err != nil {
		return nil, err
	}
	final, err := rec.Replay()
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
