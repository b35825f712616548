// Package wal is the data service's on-disk session history: a base
// snapshot followed by versioned, timestamped, CRC-guarded op records.
// One format serves two writers. The journal (Log) is a fsync-on-commit
// write-ahead log with checkpoint compaction, there for crash recovery:
// after a power cut mid-session, Recover replays the log to the exact
// op version that was last committed, tolerating a torn tail (a record
// that was being written when the machine died) without losing any
// record that a commit acknowledged. The audit trail (Begin + WriteOp,
// dataservice.Session.StartRecording) is the same segment written
// unsynced and never compacted, there for playback and asynchronous
// collaboration; it replaced the older RAVA layout this format grew
// out of.
//
// Segment layout (all integers big-endian):
//
//	magic "RAVW" | format uint16
//	checkpoint: tag 'S' | version uint64 | nanos int64 | len uint32 | crc uint32 | scene
//	op:         tag 'O' | version uint64 | nanos int64 | len uint32 | crc uint32 | op
//
// Every record is written as a single Write call followed by Sync, so
// the only possible damage from a crash is a truncated or torn final
// record — which Recover detects by length or CRC and discards. A
// segment always begins with a checkpoint; compaction rewrites the
// segment as a fresh checkpoint at the current version and atomically
// promotes it, bounding both recovery time and disk growth.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"time"

	"repro/internal/marshal"
	"repro/internal/scene"
)

// Magic opens every segment.
const Magic = 0x52415657 // "RAVW"

// Format is the segment format version.
const Format uint16 = 1

// Record tags.
const (
	tagCheckpoint = 'S'
	tagOp         = 'O'
)

// headerSize is magic(4) + format(2).
const headerSize = 6

// recHeaderSize is tag(1) + version(8) + nanos(8) + len(4) + crc(4).
const recHeaderSize = 25

// maxRecord bounds one record body (matches transport.MaxPayload).
const maxRecord = 1 << 30

// eagerBody is the largest body readRecord allocates on the header's
// word alone. A longer one grows as its bytes arrive, so a damaged
// length field costs what the segment holds, not what it claims.
const eagerBody = 64 << 10

// Typed errors for damaged segments. Recover treats damage at the tail
// as a survivable crash artifact; damage before the tail, or in strict
// readers, surfaces as an error wrapping one of these.
var (
	// ErrBadMagic means the stream is not a WAL segment.
	ErrBadMagic = errors.New("wal: bad segment magic")
	// ErrBadFormat means the segment was written by an unknown format.
	ErrBadFormat = errors.New("wal: unknown segment format")
	// ErrTruncated means the segment ended inside a record.
	ErrTruncated = errors.New("wal: truncated record")
	// ErrChecksum means a record body does not match its CRC.
	ErrChecksum = errors.New("wal: record checksum mismatch")
	// ErrTooLarge means a record announced an oversize body.
	ErrTooLarge = errors.New("wal: record exceeds size limit")
	// ErrNoCheckpoint means the segment does not begin with a checkpoint.
	ErrNoCheckpoint = errors.New("wal: segment does not start with a checkpoint")
	// ErrLogCorrupt means the segment is damaged somewhere other than
	// the tail: a broken record with intact records after it, a damaged
	// checkpoint, a version gap, or an undecodable body. No crash can
	// produce this shape — every record is one Write followed by Sync,
	// so a crash tears at most the final record — which means the log
	// lies about history. Local recovery must be refused: replaying a
	// stale prefix and serving it as current silently forks the session.
	// The caller's move is to quarantine the segment and bootstrap from
	// the nearest replica instead.
	ErrLogCorrupt = errors.New("wal: mid-log corruption")
)

// WriteSyncCloser is the durable sink a Store hands out: Sync must not
// return until previously written bytes are on stable storage.
type WriteSyncCloser interface {
	io.WriteCloser
	Sync() error
}

// Store abstracts where segments live, so the journal runs identically
// over OS files (cmd/ravedata) and in-memory buffers (deterministic
// tests, which also use MemStore's synced-bytes view to simulate a
// crash that loses unsynced writes).
type Store interface {
	// Open returns the active segment for recovery, or an error wrapping
	// fs.ErrNotExist when no segment has ever been committed.
	Open() (io.ReadCloser, error)
	// Append opens the active segment for appending, creating it when
	// absent.
	Append() (WriteSyncCloser, error)
	// Replace begins a compacted replacement segment.
	Replace() (WriteSyncCloser, error)
	// Promote atomically makes the last Replace segment the active one.
	// The caller has already Synced and Closed the replacement.
	Promote() error
}

// RecordRoom is the headroom a record's header takes in front of its
// body: AppendEncoded's rec carries an op's encoding behind this much.
const RecordRoom = recHeaderSize

// Begin opens a segment on w: the header, then base as the checkpoint at
// version, in two Writes and unsynced.
func Begin(w io.Writer, base *scene.Scene, version uint64, at time.Time) error {
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[:4], Magic)
	binary.BigEndian.PutUint16(hdr[4:], Format)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wal: write header: %w", err)
	}
	rec, err := marshal.AppendScene(make([]byte, recHeaderSize), base)
	if err != nil {
		return err
	}
	return writeRecord(w, tagCheckpoint, version, at, rec)
}

// WriteOp appends the record of the op that produced version to a
// segment Begin opened; rec is as AppendEncoded takes it.
func WriteOp(w io.Writer, rec []byte, version uint64, at time.Time) error {
	return writeRecord(w, tagOp, version, at, rec)
}

// writeRecord frames rec — RecordRoom bytes of headroom, then the body —
// in place and writes it as a single Write (header + body), so a crash
// or injected fault tears whole records, never interleavings.
func writeRecord(w io.Writer, tag byte, version uint64, at time.Time, rec []byte) error {
	body := rec[recHeaderSize:]
	if len(body) > maxRecord {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(body))
	}
	rec[0] = tag
	binary.BigEndian.PutUint64(rec[1:], version)
	binary.BigEndian.PutUint64(rec[9:], uint64(at.UnixNano()))
	binary.BigEndian.PutUint32(rec[17:], uint32(len(body)))
	binary.BigEndian.PutUint32(rec[21:], crc32.ChecksumIEEE(body))
	if _, err := w.Write(rec); err != nil {
		return fmt.Errorf("wal: write record: %w", err)
	}
	return nil
}

// Log appends committed session updates to the active segment. Not safe
// for concurrent use; the data service serializes appends under its
// session lock, which is exactly the commit ordering the journal must
// preserve.
type Log struct {
	store   Store
	seg     WriteSyncCloser
	err     error // sticky: a failed append poisons the log
	version uint64
	enc     []byte // Append's encode buffer, reused from op to op

	// CompactEvery triggers checkpoint compaction after this many ops
	// since the last checkpoint (0 = never compact automatically).
	CompactEvery int
	opsSince     int
}

// Create starts a fresh journal whose first checkpoint is base at
// baseVersion, replacing any previous segment. The checkpoint is synced
// before Create returns.
func Create(store Store, base *scene.Scene, baseVersion uint64, at time.Time) (*Log, error) {
	l := &Log{store: store, version: baseVersion}
	if err := l.rewrite(base, baseVersion, at); err != nil {
		return nil, err
	}
	return l, nil
}

// rewrite writes a replacement segment holding only a checkpoint and
// promotes it, then reopens the active segment for appending.
func (l *Log) rewrite(base *scene.Scene, version uint64, at time.Time) error {
	if l.seg != nil {
		l.seg.Close()
		l.seg = nil
	}
	seg, err := l.store.Replace()
	if err != nil {
		return fmt.Errorf("wal: begin segment: %w", err)
	}
	if err := Begin(seg, base, version, at); err != nil {
		seg.Close()
		return err
	}
	if err := seg.Sync(); err != nil {
		seg.Close()
		return fmt.Errorf("wal: sync checkpoint: %w", err)
	}
	if err := seg.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	if err := l.store.Promote(); err != nil {
		return fmt.Errorf("wal: promote segment: %w", err)
	}
	active, err := l.store.Append()
	if err != nil {
		return fmt.Errorf("wal: reopen segment: %w", err)
	}
	l.seg = active
	l.version = version
	l.opsSince = 0
	return nil
}

// Append encodes op and commits it with AppendEncoded. The data service
// does not come through here: its commit already holds the op's bytes.
func (l *Log) Append(op scene.Op, version uint64, at time.Time, snapshot func() *scene.Scene) error {
	if l.err != nil {
		return l.err
	}
	rec, err := marshal.AppendOp(append(l.enc[:0], make([]byte, RecordRoom)...), op)
	if err != nil {
		l.err = err
		return err
	}
	l.enc = rec
	return l.AppendEncoded(rec, version, at, snapshot)
}

// AppendEncoded commits one op — rec[RecordRoom:] is its marshal
// encoding — at the version it produced. The record header is written
// into rec[:RecordRoom] and rec goes to the segment as it stands; it is
// not retained. The record is synced before AppendEncoded returns
// (fsync-on-commit): once it reports success the op survives any crash.
// snapshot is consulted only when a compaction threshold is crossed; it
// must return the scene at exactly the version just appended (the data
// service passes its authoritative scene under the session lock). A nil
// snapshot defers compaction.
func (l *Log) AppendEncoded(rec []byte, version uint64, at time.Time, snapshot func() *scene.Scene) error {
	if l.err != nil {
		return l.err
	}
	if version != l.version+1 {
		l.err = fmt.Errorf("wal: append version %d does not follow %d", version, l.version)
		return l.err
	}
	if err := WriteOp(l.seg, rec, version, at); err != nil {
		l.err = err
		return err
	}
	if err := l.seg.Sync(); err != nil {
		l.err = fmt.Errorf("wal: sync op %d: %w", version, err)
		return l.err
	}
	l.version = version
	l.opsSince++
	if l.CompactEvery > 0 && l.opsSince >= l.CompactEvery && snapshot != nil {
		if err := l.rewrite(snapshot(), version, at); err != nil {
			l.err = err
			return err
		}
	}
	return nil
}

// Version returns the last committed op version.
func (l *Log) Version() uint64 { return l.version }

// Err returns the sticky error, if any.
func (l *Log) Err() error { return l.err }

// Close releases the active segment.
func (l *Log) Close() error {
	if l.seg == nil {
		return nil
	}
	err := l.seg.Close()
	l.seg = nil
	return err
}

// VersionedOp is one recovered journal record.
type VersionedOp struct {
	Version uint64
	At      time.Time
	Op      scene.Op
}

// Recovered is the state reconstructed from a segment.
type Recovered struct {
	// Base is the checkpoint scene; BaseVersion its version and BaseAt
	// the session-clock time the checkpoint was written.
	Base        *scene.Scene
	BaseVersion uint64
	BaseAt      time.Time
	// Ops are the committed ops after the checkpoint, in version order.
	Ops []VersionedOp
	// Version is the exact version of the last complete record.
	Version uint64
	// Torn reports the damage that ended the scan, if any: a truncated
	// or corrupt tail record, discarded because its commit can never
	// have been acknowledged. nil means the segment ended cleanly.
	Torn error
}

// Scene replays the recovered ops onto the checkpoint, yielding the
// scene at exactly Recovered.Version.
func (rec *Recovered) Scene() (*scene.Scene, error) {
	s := rec.Base.Clone()
	for _, vop := range rec.Ops {
		if err := s.ApplyOp(vop.Op); err != nil {
			return nil, fmt.Errorf("wal: replay op %d: %w", vop.Version, err)
		}
		if s.Version != vop.Version {
			return nil, fmt.Errorf("wal: replay version drift: scene %d, record %d", s.Version, vop.Version)
		}
	}
	return s, nil
}

// Recover scans the store's active segment, tolerating a torn tail:
// scanning stops at a truncated or corrupt record that nothing intact
// follows — the record being written when the crash hit — and every
// complete record before it is returned. Damage anywhere else is
// unrecoverable: a broken record with intact records after it, a
// damaged checkpoint, an out-of-sequence version, or an undecodable
// body all return an error wrapping ErrLogCorrupt (refuse local
// recovery, bootstrap from a replica), while a bad magic or unknown
// format keeps its own sentinel (not our log at all).
func Recover(store Store) (*Recovered, error) {
	r, err := store.Open()
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	defer r.Close()
	return Scan(r)
}

// Exists reports whether the store has an active segment to recover.
func Exists(store Store) bool {
	r, err := store.Open()
	if err != nil {
		return !errors.Is(err, fs.ErrNotExist)
	}
	r.Close()
	return true
}

// Scan reads one segment stream (see Recover for the damage rules).
func Scan(r io.Reader) (*Recovered, error) {
	if err := readHeader(r); err != nil {
		return nil, err
	}
	rec, err := readCheckpoint(r)
	if err != nil {
		return nil, err
	}

	for {
		tag, version, at, body, err := readRecord(r)
		if err != nil {
			if err == io.EOF {
				return rec, nil
			}
			if errors.Is(err, ErrTruncated) || errors.Is(err, ErrChecksum) {
				return settleTail(r, rec, err)
			}
			// An oversize length in a fully present header: a torn write
			// delivers a prefix of a valid record, so its header bytes
			// are always sane — this is corruption.
			return nil, fmt.Errorf("%w: %w", ErrLogCorrupt, err)
		}
		switch tag {
		case tagOp:
			if version != rec.Version+1 {
				return nil, fmt.Errorf("%w: op version %d does not follow %d", ErrLogCorrupt, version, rec.Version)
			}
			op, err := marshal.DecodeOp(body)
			if err != nil {
				// The CRC matched, so the writer itself journaled garbage.
				return nil, fmt.Errorf("%w: decode op %d: %w", ErrLogCorrupt, version, err)
			}
			rec.Ops = append(rec.Ops, VersionedOp{Version: version, At: at, Op: op})
			rec.Version = version
		case tagCheckpoint:
			// A mid-segment checkpoint only appears if a compaction's
			// Promote was interrupted in a way the Store cannot express
			// atomically; treat it as unrecoverable corruption.
			return nil, fmt.Errorf("%w: unexpected mid-segment checkpoint at version %d", ErrLogCorrupt, version)
		default:
			return nil, fmt.Errorf("%w: unknown record tag %q", ErrLogCorrupt, tag)
		}
	}
}

// readHeader validates the segment magic and format.
func readHeader(r io.Reader) error {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: segment header: %v", ErrTruncated, err)
	}
	if binary.BigEndian.Uint32(hdr[:4]) != Magic {
		return fmt.Errorf("%w: %#x", ErrBadMagic, binary.BigEndian.Uint32(hdr[:4]))
	}
	if f := binary.BigEndian.Uint16(hdr[4:]); f != Format {
		return fmt.Errorf("%w: %d", ErrBadFormat, f)
	}
	return nil
}

// readCheckpoint reads the mandatory opening checkpoint. Damage here is
// never a crash artifact — a checkpoint is synced and atomically
// promoted before its segment goes live — so every failure wraps
// ErrLogCorrupt.
func readCheckpoint(r io.Reader) (*Recovered, error) {
	tag, version, at, body, err := readRecord(r)
	if err != nil {
		if err == io.EOF {
			err = fmt.Errorf("%w: segment ends before checkpoint", ErrTruncated)
		}
		return nil, fmt.Errorf("%w: checkpoint: %w", ErrLogCorrupt, err)
	}
	if tag != tagCheckpoint {
		return nil, fmt.Errorf("%w: %w", ErrLogCorrupt, ErrNoCheckpoint)
	}
	base, err := marshal.DecodeScene(body)
	if err != nil {
		return nil, fmt.Errorf("%w: decode checkpoint: %w", ErrLogCorrupt, err)
	}
	if base.Version != version {
		// The header's version is outside the CRC; the scene's is inside.
		return nil, fmt.Errorf("%w: checkpoint record says version %d, its scene %d", ErrLogCorrupt, version, base.Version)
	}
	return &Recovered{Base: base, BaseVersion: version, BaseAt: at, Version: version}, nil
}

// settleTail classifies damage at the scan position. A crash tears at
// most the final record (one Write, one Sync per record), so if any
// fully intact record follows the damaged one the damage is mid-log
// corruption and local recovery is refused. Only damage that nothing
// intact follows is the torn tail of the record being written when the
// crash hit — its commit was never acknowledged, so dropping it is
// safe.
func settleTail(r io.Reader, rec *Recovered, damage error) (*Recovered, error) {
	for {
		_, version, _, _, err := readRecord(r)
		switch {
		case err == nil:
			return nil, fmt.Errorf("%w: %w, but version %d follows intact", ErrLogCorrupt, damage, version)
		case err == io.EOF || errors.Is(err, ErrTruncated):
			rec.Torn = damage
			return rec, nil
		case errors.Is(err, ErrChecksum):
			// Framing intact: keep looking for an intact survivor.
		default:
			// Framing lost (oversize length): nothing past the damage can
			// be read, so no survivor can be proven — treat as tail loss.
			rec.Torn = damage
			return rec, nil
		}
	}
}

// readRecord reads one record. io.EOF at a record boundary is a clean
// end; anything shorter wraps ErrTruncated, and a body/CRC mismatch
// wraps ErrChecksum.
func readRecord(r io.Reader) (tag byte, version uint64, at time.Time, body []byte, err error) {
	var hdr [recHeaderSize]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, 0, time.Time{}, nil, io.EOF
		}
		return 0, 0, time.Time{}, nil, fmt.Errorf("%w: record header", ErrTruncated)
	}
	tag = hdr[0]
	version = binary.BigEndian.Uint64(hdr[1:])
	at = time.Unix(0, int64(binary.BigEndian.Uint64(hdr[9:])))
	n := binary.BigEndian.Uint32(hdr[17:])
	if n > maxRecord {
		return 0, 0, time.Time{}, nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	sum := binary.BigEndian.Uint32(hdr[21:])
	body = make([]byte, min(int(n), eagerBody))
	_, err = io.ReadFull(r, body)
	for have := len(body); err == nil && have < int(n); have = len(body) {
		body = append(body, make([]byte, min(int(n)-have, have))...)
		_, err = io.ReadFull(r, body[have:])
	}
	if err != nil {
		return 0, 0, time.Time{}, nil, fmt.Errorf("%w: record body", ErrTruncated)
	}
	if crc32.ChecksumIEEE(body) != sum {
		return 0, 0, time.Time{}, nil, fmt.Errorf("%w: version %d", ErrChecksum, version)
	}
	return tag, version, at, body, nil
}
