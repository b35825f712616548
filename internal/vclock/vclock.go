// Package vclock abstracts time so the RAVE services, link simulator and
// device cost models can run either against the wall clock or against a
// deterministic virtual clock that tests and the benchmark harness advance
// manually.
//
// A Virtual clock is moved by Advance, or by Drive, which moves it only
// when no other goroutine can run without it: every goroutine is parked
// on a channel, a select or a sync primitive. It then jumps exactly to the
// earliest pending timer. A goroutine on the CPU, in a system call, in a
// real time.Sleep or waiting on a socket holds the clock, so real work
// costs zero virtual time and only what a caller charges on the clock (the
// device cost models) moves it.
package vclock

import (
	"bytes"
	"container/heap"
	"runtime"
	"slices"
	"sync"
	"time"
)

// Clock is the time source used throughout the simulator and services.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Sleep blocks the caller for d on this clock.
	Sleep(d time.Duration)
	// After returns a channel that receives the then-current time once d
	// has elapsed on this clock.
	After(d time.Duration) <-chan time.Time
}

// Real is a Clock backed by the wall clock.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// waiter is a pending timer on a virtual clock: it sends on ch or starts fn.
type waiter struct {
	deadline time.Time
	ch       chan time.Time
	fn       func()
	index    int
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int            { return len(h) }
func (h waiterHeap) Less(i, j int) bool  { return h[i].deadline.Before(h[j].deadline) }
func (h waiterHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].index = i; h[j].index = j }
func (h *waiterHeap) Push(x interface{}) { w := x.(*waiter); w.index = len(*h); *h = append(*h, w) }
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// Virtual is a deterministic Clock that advances only by Advance or while
// Drive runs. Sleep blocks until the clock is moved past the deadline,
// which makes time-dependent service behaviour fully reproducible in
// tests.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
}

// NewVirtual returns a virtual clock starting at the given epoch.
func NewVirtual(start time.Time) *Virtual {
	return &Virtual{now: start}
}

// Now implements Clock.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// After implements Clock.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- v.now
		return ch
	}
	heap.Push(&v.waiters, &waiter{deadline: v.now.Add(d), ch: ch})
	return ch
}

// AfterFunc starts fn in a goroutine of its own once d has elapsed on the
// clock, or at once when d <= 0. Until then no goroutine waits on the
// timer, so a chain of callbacks that re-arm themselves holds a goroutine
// only while one of them runs.
func (v *Virtual) AfterFunc(d time.Duration, fn func()) {
	if d <= 0 {
		go fn()
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	heap.Push(&v.waiters, &waiter{deadline: v.now.Add(d), fn: fn})
}

// Sleep implements Clock.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-v.After(d)
}

// Advance moves the clock forward by d, firing any timers whose deadlines
// are reached, in deadline order.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	v.advanceTo(v.now.Add(d))
	v.mu.Unlock()
}

// advanceTo fires the timers due by target, in deadline order, and sets
// the clock to target. The caller holds v.mu.
func (v *Virtual) advanceTo(target time.Time) {
	for len(v.waiters) > 0 && !v.waiters[0].deadline.After(target) {
		w := heap.Pop(&v.waiters).(*waiter)
		v.now = w.deadline
		if w.fn != nil {
			go w.fn()
			continue
		}
		//lint:allow unboundedsend: w.ch is per-waiter with capacity 1 (see After) and each waiter is popped, hence sent to, exactly once
		w.ch <- v.now
	}
	v.now = target
}

// advanceToNext moves the clock exactly to the earliest pending deadline,
// firing every timer due then. It reports false when no timer is pending.
func (v *Virtual) advanceToNext() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(v.waiters) == 0 {
		return false
	}
	v.advanceTo(v.waiters[0].deadline)
	return true
}

// Drive moves the clock from a goroutine of its own until the returned
// stop function is called. It advances only when every other goroutine
// is durably blocked — parked in a wait that only another goroutine of
// this process can end — and then exactly to the earliest pending
// timer's deadline, never past it. So real CPU work costs zero virtual
// time, and the deadlines a scenario sets are missed only by the cost it
// charges on the clock, whatever GOMAXPROCS is and however fast the host.
//
// Each check reads the goroutine headers of one runtime.Stack snapshot,
// which stops the world, so the states it reads are consistent. A state
// it does not know as a wait — running, runnable, a system call, a real
// time.Sleep, IO wait on a socket — holds the clock: a misread can stall
// a run but never move time early. Two limits follow. A goroutine waiting
// on a socket holds the clock for as long as the socket is open, so Drive
// does not fit code with real network I/O. A goroutine receiving from a
// real-time timer's channel reads as blocked, so code under Drive takes
// its time from this clock. The CPU profiler's writer, which sleeps on the
// real clock while a profile runs, is not read. One driver moves a clock
// at a time: two would each advance on the same all-blocked reading.
func (v *Virtual) Drive() (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		v.drive(done)
	}()
	return func() { close(done); <-exited }
}

// Polling bounds of Drive while some goroutine holds the clock: each
// check stops the world, so an idle driver backs off rather than spin.
// What holds the clock is most often a callback just started, running on
// another P for microseconds, while a sleep can last a timer tick. So a
// held check is first retried driveYields times, each after the driver
// yields for as long as the check took — the world gets back the time
// the snapshot stopped it for — and only then does the driver sleep.
const (
	driveYields  = 8
	driveMinIdle = 20 * time.Microsecond
	driveMaxIdle = time.Millisecond
)

// drive is Drive's loop.
func (v *Virtual) drive(done <-chan struct{}) {
	// Drivers, this one and any other in the process, are skipped by the
	// name of this function in their stacks: they only sleep between
	// checks and would otherwise hold each other's clocks. So is the CPU
	// profiler's writer, which sleeps on the real clock for as long as a
	// profile runs.
	pc, _, _, _ := runtime.Caller(0)
	skip := [][]byte{
		[]byte("\n" + runtime.FuncForPC(pc).Name() + "("),
		[]byte("\nruntime/pprof.profileWriter("),
	}
	buf := make([]byte, 64<<10)
	idle, yields := driveMinIdle, 0
	for {
		start := time.Now()
		var n int
		for n = runtime.Stack(buf, true); n == len(buf); n = runtime.Stack(buf, true) {
			buf = make([]byte, 2*len(buf))
		}
		check := time.Since(start)
		// Checked after the snapshot, which reads a caller parked in stop as blocked.
		select {
		case <-done:
			return
		default:
		}
		if allBlocked(buf[:n], skip) && v.advanceToNext() {
			idle, yields = driveMinIdle, 0
			runtime.Gosched()
			continue
		}
		if yields < driveYields {
			yields++
			for until := time.Now().Add(check); time.Now().Before(until); {
				runtime.Gosched()
			}
			continue
		}
		time.Sleep(idle)
		idle = min(2*idle, driveMaxIdle)
	}
}

// blockedStates are the goroutine wait states that only another goroutine
// of this process can end (the runtime's waitReason strings, as printed
// in a stack header "goroutine N [state, M minutes]:"). A plain
// "semacquire" is one only as a sync-package wait (see syncSemacquire).
var blockedStates = map[string]bool{
	"chan receive":            true,
	"chan receive (nil chan)": true,
	"chan send":               true,
	"chan send (nil chan)":    true,
	"select":                  true,
	"select (no cases)":       true,
	"sync.Mutex.Lock":         true,
	"sync.RWMutex.Lock":       true,
	"sync.RWMutex.RLock":      true,
	"sync.Cond.Wait":          true,
	"sync.WaitGroup.Wait":     true,
	"semacquire":              true,
}

// syncSemacquire is the first frame of a "semacquire" wait that the sync
// package parks on (a WaitGroup before go1.24 prints so). The runtime's
// own semaphores print the same state over the user frame that entered
// the runtime: a goroutine starting a GC parks on one while a
// stop-the-world — this driver's snapshot among them — holds it, and it
// goes on when the runtime lets go, with no goroutine's help.
var syncSemacquire = []byte("sync.runtime_Semacquire")

// allBlocked reports whether every goroutine in the runtime.Stack dump,
// apart from those whose stack holds one of the frames in skip, is in one
// of blockedStates.
func allBlocked(dump []byte, skip [][]byte) bool {
	for _, g := range bytes.Split(dump, []byte("\n\n")) {
		if slices.ContainsFunc(skip, func(frame []byte) bool { return bytes.Contains(g, frame) }) {
			continue
		}
		open, end := bytes.IndexByte(g, '['), bytes.IndexByte(g, ']')
		if !bytes.HasPrefix(g, []byte("goroutine ")) || open < 0 || end < open {
			return false
		}
		state, _, _ := bytes.Cut(g[open+1:end], []byte(","))
		_, frames, _ := bytes.Cut(g, []byte("\n"))
		if !blockedStates[string(state)] ||
			string(state) == "semacquire" && !bytes.HasPrefix(frames, syncSemacquire) {
			return false
		}
	}
	return true
}

// PendingWaiters reports how many timers are waiting on the clock.
func (v *Virtual) PendingWaiters() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.waiters)
}
