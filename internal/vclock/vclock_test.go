package vclock

import (
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2004, 11, 6, 0, 0, 0, 0, time.UTC) // SC2004 week

func TestVirtualNowAdvance(t *testing.T) {
	v := NewVirtual(epoch)
	if got := v.Now(); !got.Equal(epoch) {
		t.Fatalf("Now = %v, want epoch", got)
	}
	v.Advance(5 * time.Second)
	if got := v.Now(); !got.Equal(epoch.Add(5 * time.Second)) {
		t.Fatalf("after advance: %v", got)
	}
}

func TestVirtualSleepWakesInOrder(t *testing.T) {
	v := NewVirtual(epoch)
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	sleep := func(id int, d time.Duration) {
		defer wg.Done()
		v.Sleep(d)
		mu.Lock()
		order = append(order, id)
		mu.Unlock()
	}
	wg.Add(3)
	go sleep(3, 300*time.Millisecond)
	go sleep(1, 100*time.Millisecond)
	go sleep(2, 200*time.Millisecond)

	// Wait until all three are parked on the clock, then advance in steps
	// so each wake is observed before the next timer fires.
	for v.PendingWaiters() != 3 {
		time.Sleep(time.Millisecond)
	}
	for step := 1; step <= 3; step++ {
		v.Advance(100 * time.Millisecond)
		for {
			mu.Lock()
			n := len(order)
			mu.Unlock()
			if n == step {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	wg.Wait()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wake order: %v", order)
	}
}

func TestVirtualAfterFiresAtDeadline(t *testing.T) {
	v := NewVirtual(epoch)
	ch := v.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired before advance")
	default:
	}
	v.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired early")
	default:
	}
	v.Advance(time.Second)
	got := <-ch
	if !got.Equal(epoch.Add(10 * time.Second)) {
		t.Fatalf("fire time: %v", got)
	}
}

func TestVirtualZeroSleepReturnsImmediately(t *testing.T) {
	v := NewVirtual(epoch)
	done := make(chan struct{})
	go func() {
		v.Sleep(0)
		v.Sleep(-time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("zero sleep blocked")
	}
}

func TestVirtualAfterZero(t *testing.T) {
	v := NewVirtual(epoch)
	select {
	case got := <-v.After(0):
		if !got.Equal(epoch) {
			t.Fatalf("After(0): %v", got)
		}
	case <-time.After(time.Second):
		t.Fatal("After(0) did not fire")
	}
}

func TestRealClockMonotone(t *testing.T) {
	var c Real
	a := c.Now()
	c.Sleep(time.Millisecond)
	b := c.Now()
	if !b.After(a) {
		t.Fatalf("real clock did not advance: %v -> %v", a, b)
	}
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(time.Second):
		t.Fatal("real After did not fire")
	}
}

func TestVirtualAdvanceFiresIntermediateDeadlines(t *testing.T) {
	v := NewVirtual(epoch)
	ch1 := v.After(time.Second)
	ch2 := v.After(2 * time.Second)
	v.Advance(5 * time.Second)
	t1 := <-ch1
	t2 := <-ch2
	if !t1.Equal(epoch.Add(time.Second)) {
		t.Errorf("timer1 fired at %v", t1)
	}
	if !t2.Equal(epoch.Add(2 * time.Second)) {
		t.Errorf("timer2 fired at %v", t2)
	}
	if v.PendingWaiters() != 0 {
		t.Errorf("waiters left: %d", v.PendingWaiters())
	}
}
