package wal

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// MemStore keeps segments in memory for deterministic tests. It tracks
// the synced prefix of the active segment separately from the written
// bytes, so a test can simulate a crash that loses everything after the
// last fsync: Crashed() returns a new MemStore holding only the bytes a
// Sync call made durable.
type MemStore struct {
	mu sync.Mutex
	// A segment is the chunks written to it, one exactly sized copy per
	// Write: a journal that grows by a mesh per commit is never
	// reallocated and copied to make room for the next.
	active  [][]byte
	synced  int // prefix of active guaranteed durable, in bytes
	pending [][]byte
	exists  bool
	hasPend bool
	syncErr error // injected fault: fail the next syncs
	promErr error // injected fault: fail the next promotes
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// FailSyncs makes subsequent segment syncs fail with err (nil clears).
func (m *MemStore) FailSyncs(err error) {
	m.mu.Lock()
	m.syncErr = err
	m.mu.Unlock()
}

// FailPromotes makes subsequent Promote calls fail with err (nil
// clears) — a compaction whose atomic rename the disk refuses.
func (m *MemStore) FailPromotes(err error) {
	m.mu.Lock()
	m.promErr = err
	m.mu.Unlock()
}

// Bytes returns a copy of the active segment as written.
func (m *MemStore) Bytes() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return bytes.Join(m.active, nil)
}

// Crashed returns a new store as a crash would leave this one: only the
// synced prefix of the active segment survives; unsynced writes and any
// unpromoted replacement segment are gone.
func (m *MemStore) Crashed() *MemStore {
	m.mu.Lock()
	defer m.mu.Unlock()
	return &MemStore{active: [][]byte{bytes.Join(m.active, nil)[:m.synced]}, synced: m.synced, exists: m.exists}
}

// Open implements Store.
func (m *MemStore) Open() (io.ReadCloser, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.exists {
		return nil, fmt.Errorf("wal: no active segment: %w", fs.ErrNotExist)
	}
	return io.NopCloser(bytes.NewReader(bytes.Join(m.active, nil))), nil
}

// Append implements Store.
func (m *MemStore) Append() (WriteSyncCloser, error) {
	m.mu.Lock()
	m.exists = true
	m.mu.Unlock()
	return &memSeg{store: m, replace: false}, nil
}

// Replace implements Store.
func (m *MemStore) Replace() (WriteSyncCloser, error) {
	m.mu.Lock()
	m.pending = nil
	m.hasPend = true
	m.mu.Unlock()
	return &memSeg{store: m, replace: true}, nil
}

// Promote implements Store.
func (m *MemStore) Promote() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.promErr != nil {
		return m.promErr
	}
	if !m.hasPend {
		return fmt.Errorf("wal: no replacement segment to promote")
	}
	m.active = m.pending
	m.synced = segLen(m.pending) // Promote is atomic in the model
	m.pending = nil
	m.hasPend = false
	m.exists = true
	return nil
}

// segLen is a segment's length in bytes.
func segLen(chunks [][]byte) (n int) {
	for _, c := range chunks {
		n += len(c)
	}
	return n
}

// memSeg is one open segment handle on a MemStore.
type memSeg struct {
	store   *MemStore
	replace bool
	closed  bool
}

func (s *memSeg) Write(p []byte) (int, error) {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("wal: write on closed segment")
	}
	if s.replace {
		s.store.pending = append(s.store.pending, bytes.Clone(p))
	} else {
		s.store.active = append(s.store.active, bytes.Clone(p))
	}
	return len(p), nil
}

func (s *memSeg) Sync() error {
	s.store.mu.Lock()
	defer s.store.mu.Unlock()
	if s.store.syncErr != nil {
		return s.store.syncErr
	}
	if !s.replace {
		s.store.synced = segLen(s.store.active)
	}
	return nil
}

func (s *memSeg) Close() error {
	s.store.mu.Lock()
	s.closed = true
	s.store.mu.Unlock()
	return nil
}

// OSStore keeps the active segment at path and stages replacements at
// path+".new", promoting with an atomic rename. cmd/ravedata uses it
// for real on-disk journals.
type OSStore struct {
	path string
}

// NewOSStore journals to the segment file at path.
func NewOSStore(path string) *OSStore { return &OSStore{path: path} }

// Open implements Store.
func (o *OSStore) Open() (io.ReadCloser, error) {
	return os.Open(o.path)
}

// Append implements Store.
func (o *OSStore) Append() (WriteSyncCloser, error) {
	return os.OpenFile(o.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// Replace implements Store.
func (o *OSStore) Replace() (WriteSyncCloser, error) {
	return os.OpenFile(o.path+".new", os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}

// Promote implements Store: rename is atomic on POSIX filesystems, and
// the parent directory is synced so the rename itself survives a crash.
func (o *OSStore) Promote() error {
	if err := os.Rename(o.path+".new", o.path); err != nil {
		return err
	}
	if dir, err := os.Open(filepath.Dir(o.path)); err == nil {
		defer dir.Close()
		if err := dir.Sync(); err != nil {
			return fmt.Errorf("wal: sync segment directory: %w", err)
		}
	}
	return nil
}

// Quarantine moves a corrupt active segment aside to path+".corrupt"
// (replacing any earlier quarantine) so the evidence survives for a
// post-mortem while the path is freed for a fresh bootstrap journal.
func (o *OSStore) Quarantine() error {
	if err := os.Rename(o.path, o.path+".corrupt"); err != nil {
		return fmt.Errorf("wal: quarantine segment: %w", err)
	}
	return nil
}
