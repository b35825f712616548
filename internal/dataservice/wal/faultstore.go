package wal

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// Disk-fault sentinels. FaultStore injects them; the journal and fleet
// layers classify on them. They model ENOSPC and EIO without dragging
// syscall numbers into platform-independent tests.
var (
	// ErrNoSpace is the modeled ENOSPC: the write (or part of it) never
	// reached the platter.
	ErrNoSpace = errors.New("wal: no space left on device")
	// ErrDiskIO is the modeled EIO: the device refused the operation —
	// after a failed sync nothing about the segment can be trusted.
	ErrDiskIO = errors.New("wal: i/o error")
	// ErrStoreKilled marks the crash point in a sweep: every store
	// operation at or past the kill index fails with it, as if the
	// process died there.
	ErrStoreKilled = errors.New("wal: store killed")
)

// StoreFaults is a deterministic disk-fault plan for a FaultStore,
// netsim-style: every fault decision is a function of the operation
// index and the seed, so a plan replays identically run after run. One
// index is consumed per segment Write, per Sync, and per Promote —
// the operations that touch the platter. Safe for concurrent use.
type StoreFaults struct {
	mu sync.Mutex

	seed  uint64
	opIdx int

	enospcAt map[int]bool // write fails outright with ErrNoSpace
	shortAt  map[int]int  // write persists only the first k bytes, then ErrNoSpace
	syncEIO  map[int]bool // sync fails with ErrDiskIO
	flipAt   map[int]bool // write persists with flipped bits, reports success
	sickFrom int          // -1 = never; from this index on, every op fails
	killAt   int          // -1 = never; ops at or past this index fail (crash sweep)
}

// NewStoreFaults returns an empty plan whose bit-flip positions derive
// from seed.
func NewStoreFaults(seed uint64) *StoreFaults {
	return &StoreFaults{seed: seed, sickFrom: -1, killAt: -1}
}

// FailWriteENOSPC makes the writes at the given operation indices fail
// with ErrNoSpace, persisting nothing.
func (f *StoreFaults) FailWriteENOSPC(idx ...int) *StoreFaults {
	f.mu.Lock()
	if f.enospcAt == nil {
		f.enospcAt = map[int]bool{}
	}
	for _, i := range idx {
		f.enospcAt[i] = true
	}
	f.mu.Unlock()
	return f
}

// ShortWrite persists only the first keep bytes of the write at
// operation index idx, then reports ErrNoSpace — the disk filling up
// mid-record.
func (f *StoreFaults) ShortWrite(idx, keep int) *StoreFaults {
	f.mu.Lock()
	if f.shortAt == nil {
		f.shortAt = map[int]int{}
	}
	f.shortAt[idx] = keep
	f.mu.Unlock()
	return f
}

// FailSyncEIO makes the syncs at the given operation indices fail with
// ErrDiskIO.
func (f *StoreFaults) FailSyncEIO(idx ...int) *StoreFaults {
	f.mu.Lock()
	if f.syncEIO == nil {
		f.syncEIO = map[int]bool{}
	}
	for _, i := range idx {
		f.syncEIO[i] = true
	}
	f.mu.Unlock()
	return f
}

// FlipBits silently corrupts the writes at the given operation indices:
// a few bits flip (deterministically from the seed) on the way to the
// platter and the write still reports success — bit rot at write time,
// the fault only a CRC can catch.
func (f *StoreFaults) FlipBits(idx ...int) *StoreFaults {
	f.mu.Lock()
	if f.flipAt == nil {
		f.flipAt = map[int]bool{}
	}
	for _, i := range idx {
		f.flipAt[i] = true
	}
	f.mu.Unlock()
	return f
}

// KillAtOp makes every operation at or past index k fail with
// ErrStoreKilled — the crash-point dial the recovery sweep turns.
func (f *StoreFaults) KillAtOp(k int) *StoreFaults {
	f.mu.Lock()
	f.killAt = k
	f.mu.Unlock()
	return f
}

// SickNow poisons the disk from this moment on: every subsequent write
// and sync fails with ErrDiskIO. The mid-run disk death the evacuation
// choreography reacts to.
func (f *StoreFaults) SickNow() {
	f.mu.Lock()
	if f.sickFrom < 0 {
		f.sickFrom = f.opIdx
	}
	f.mu.Unlock()
}

// Sick reports whether SickNow has fired (or the plan's sick index has
// been reached).
func (f *StoreFaults) Sick() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sickFrom >= 0 && f.opIdx >= f.sickFrom
}

// Ops returns how many faultable operations have been consumed so far —
// a fault-free rehearsal run measures the sweep range with it.
func (f *StoreFaults) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.opIdx
}

// storeAction is the fault decision for one operation.
type storeAction struct {
	fail error // non-nil: the op fails with this, persisting nothing
	keep int   // bytes persisted before failing; -1 = all
	flip bool  // persist with flipped bits, report success
	idx  int
}

// nextOp consumes one operation index and returns what to do with it.
func (f *StoreFaults) nextOp() storeAction {
	f.mu.Lock()
	defer f.mu.Unlock()
	idx := f.opIdx
	f.opIdx++
	act := storeAction{keep: -1, idx: idx}
	switch {
	case f.killAt >= 0 && idx >= f.killAt:
		act.fail = ErrStoreKilled
	case f.sickFrom >= 0 && idx >= f.sickFrom:
		act.fail = ErrDiskIO
	case f.enospcAt[idx]:
		act.fail = ErrNoSpace
	case f.syncEIO[idx]:
		act.fail = ErrDiskIO
	default:
		if k, ok := f.shortAt[idx]; ok {
			act.keep = k
			act.fail = ErrNoSpace
		}
		if f.flipAt[idx] {
			act.flip = true
		}
	}
	return act
}

// flipBytes flips a few bits of data in place, deterministically from
// the seed and operation index (the netsim corruption recipe).
func (f *StoreFaults) flipBytes(idx int, data []byte) {
	if len(data) == 0 {
		return
	}
	h := splitmix64(f.seed ^ (uint64(idx) << 32))
	for k := 0; k < 3; k++ {
		pos := int(h % uint64(len(data)))
		data[pos] ^= byte(1 + (h>>8)%255)
		h = splitmix64(h)
	}
}

// splitmix64 is the per-index hash behind FlipBits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// FaultStore interposes a StoreFaults plan between the journal and any
// inner Store: ENOSPC, short writes, sync EIO, silent bit flips, sick
// disks, and crash points, all deterministic. Reads pass through
// untouched — damage is persisted at write time and discovered the way
// a real recovery discovers it.
type FaultStore struct {
	inner Store
	plan  *StoreFaults
}

// NewFaultStore wraps inner with the given fault plan.
func NewFaultStore(inner Store, plan *StoreFaults) *FaultStore {
	return &FaultStore{inner: inner, plan: plan}
}

// Open implements Store.
func (f *FaultStore) Open() (io.ReadCloser, error) { return f.inner.Open() }

// Append implements Store.
func (f *FaultStore) Append() (WriteSyncCloser, error) {
	seg, err := f.inner.Append()
	if err != nil {
		return nil, err
	}
	return &faultSeg{inner: seg, plan: f.plan}, nil
}

// Replace implements Store.
func (f *FaultStore) Replace() (WriteSyncCloser, error) {
	seg, err := f.inner.Replace()
	if err != nil {
		return nil, err
	}
	return &faultSeg{inner: seg, plan: f.plan}, nil
}

// Promote implements Store: promotion is a directory write, so it
// consumes an operation index and fails on a killed or sick disk.
func (f *FaultStore) Promote() error {
	act := f.plan.nextOp()
	if act.fail != nil {
		return fmt.Errorf("wal: promote segment: %w", act.fail)
	}
	return f.inner.Promote()
}

// faultSeg is one open segment handle routed through the fault plan.
type faultSeg struct {
	inner WriteSyncCloser
	plan  *StoreFaults
}

func (s *faultSeg) Write(p []byte) (int, error) {
	act := s.plan.nextOp()
	switch {
	case act.fail != nil && act.keep < 0:
		return 0, act.fail
	case act.fail != nil:
		keep := act.keep
		if keep > len(p) {
			keep = len(p)
		}
		n, err := s.inner.Write(p[:keep])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("wal: short write %d of %d bytes: %w", n, len(p), act.fail)
	case act.flip:
		flipped := append([]byte(nil), p...)
		s.plan.flipBytes(act.idx, flipped)
		n, err := s.inner.Write(flipped)
		if n > len(p) {
			n = len(p)
		}
		return n, err
	default:
		return s.inner.Write(p)
	}
}

func (s *faultSeg) Sync() error {
	act := s.plan.nextOp()
	if act.fail != nil {
		return act.fail
	}
	return s.inner.Sync()
}

func (s *faultSeg) Close() error { return s.inner.Close() }

// Probe checks whether the store can still commit: it opens the active
// segment for append and syncs it. A sick or full disk fails here
// without touching journal state — the standby's abstain check and the
// heartbeat's health report both lean on it.
func Probe(store Store) error {
	seg, err := store.Append()
	if err != nil {
		return err
	}
	if err := seg.Sync(); err != nil {
		seg.Close()
		return err
	}
	return seg.Close()
}
