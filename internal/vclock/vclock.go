// Package vclock abstracts time so the RAVE services, link simulator and
// device cost models can run either against the wall clock or against a
// deterministic virtual clock that tests and the benchmark harness advance
// manually.
package vclock

import (
	"container/heap"
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

// waiter is a pending timer on a virtual clock.
type waiter struct {
	deadline time.Time
	ch       chan time.Time
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

// Virtual is a deterministic Clock that only advances when Advance is
// called. Sleep blocks until another goroutine advances the clock past the
// deadline, which makes time-dependent service behaviour fully
// reproducible in tests.
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
	target := v.now.Add(d)
	for len(v.waiters) > 0 && !v.waiters[0].deadline.After(target) {
		w := heap.Pop(&v.waiters).(*waiter)
		v.now = w.deadline
		//lint:allow unboundedsend: w.ch is per-waiter with capacity 1 (see After) and each waiter is popped, hence sent to, exactly once
		w.ch <- v.now
	}
	v.now = target
	v.mu.Unlock()
}

// PendingWaiters reports how many timers are waiting on the clock.
func (v *Virtual) PendingWaiters() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.waiters)
}
