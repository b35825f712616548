package vclock

import (
	"io"
	"runtime/pprof"
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

// TestDriveHoldsWhileAGoroutineRuns: a goroutine busy on the CPU holds a
// driven clock, even with a timer pending; once it parks, the clock
// moves to the timer.
func TestDriveHoldsWhileAGoroutineRuns(t *testing.T) {
	v := NewVirtual(epoch)
	timer := v.After(time.Second)
	spun := make(chan time.Time)
	go func() {
		for start := time.Now(); time.Since(start) < 100*time.Millisecond; {
		}
		spun <- v.Now()
	}()
	stop := v.Drive()
	defer stop()
	if got := <-spun; !got.Equal(epoch) {
		t.Fatalf("clock moved to %v while a goroutine was running", got)
	}
	if got := <-timer; !got.Equal(epoch.Add(time.Second)) {
		t.Fatalf("timer fired at %v", got)
	}
}

// TestDriveJumpsToEarliestDeadline: with every goroutine blocked, a
// driven clock moves exactly to the earliest pending deadline and stops
// there until the woken goroutine blocks again. The deadlines lie off any
// round step, so a clock that moves in fixed steps overshoots them.
func TestDriveJumpsToEarliestDeadline(t *testing.T) {
	v := NewVirtual(epoch)
	d1, d2 := 3*time.Second+time.Microsecond, 7*time.Second+3*time.Microsecond
	first, second := v.After(d1), v.After(d2)
	stop := v.Drive()
	defer stop()
	for _, c := range []struct {
		ch <-chan time.Time
		d  time.Duration
	}{{first, d1}, {second, d2}} {
		if got := <-c.ch; !got.Equal(epoch.Add(c.d)) {
			t.Fatalf("timer due at +%v fired at %v", c.d, got)
		}
		if got := v.Now(); !got.Equal(epoch.Add(c.d)) {
			t.Fatalf("clock at %v after the timer due at +%v, want exactly its deadline", got, c.d)
		}
	}
}

// TestDriveHoldsDuringRealSleep: a goroutine in a real time.Sleep holds a
// driven clock.
func TestDriveHoldsDuringRealSleep(t *testing.T) {
	v := NewVirtual(epoch)
	timer := v.After(time.Second)
	slept := make(chan time.Time)
	go func() {
		time.Sleep(100 * time.Millisecond)
		slept <- v.Now()
	}()
	stop := v.Drive()
	defer stop()
	if got := <-slept; !got.Equal(epoch) {
		t.Fatalf("clock moved to %v during a real sleep", got)
	}
	if got := <-timer; !got.Equal(epoch.Add(time.Second)) {
		t.Fatalf("timer fired at %v", got)
	}
}

// TestDriveUnderCPUProfile: the CPU profiler's writer goroutine sleeps on
// the real clock for as long as a profile runs, and a driven clock does
// not wait for it.
func TestDriveUnderCPUProfile(t *testing.T) {
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Skipf("a CPU profile is already running: %v", err)
	}
	defer pprof.StopCPUProfile()
	v := NewVirtual(epoch)
	timer := v.After(time.Second)
	stop := v.Drive()
	defer stop()
	select {
	case <-timer:
	case <-time.After(10 * time.Second):
		t.Fatal("a CPU profile held the driven clock")
	}
}

// TestAfterFuncFiresInDeadlineOrder: under Advance, callbacks start in
// deadline order, whatever order they were registered in, and none starts
// before its deadline.
func TestAfterFuncFiresInDeadlineOrder(t *testing.T) {
	v := NewVirtual(epoch)
	fired := make(chan int, 3)
	for _, id := range []int{3, 1, 2} {
		v.AfterFunc(time.Duration(id)*100*time.Millisecond, func() { fired <- id })
	}
	for want := 1; want <= 3; want++ {
		v.Advance(100 * time.Millisecond)
		select {
		case got := <-fired:
			if got != want {
				t.Fatalf("step %d started callback %d", want, got)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("callback %d did not start at its deadline", want)
		}
	}
	select {
	case got := <-fired:
		t.Fatalf("callback %d started twice", got)
	default:
	}
}

// TestAfterFuncBlockingCallbackDoesNotBlockAdvance: a callback runs in a
// goroutine of its own, so one that blocks neither holds Advance nor
// keeps the timers after it from firing.
func TestAfterFuncBlockingCallbackDoesNotBlockAdvance(t *testing.T) {
	v := NewVirtual(epoch)
	release, entered := make(chan struct{}), make(chan struct{})
	v.AfterFunc(time.Second, func() {
		close(entered)
		<-release
	})
	later := v.After(2 * time.Second)
	advanced := make(chan struct{})
	go func() {
		v.Advance(3 * time.Second)
		close(advanced)
	}()
	for _, c := range []struct {
		ch   <-chan struct{}
		what string
	}{{advanced, "Advance returned"}, {entered, "the callback started"}} {
		select {
		case <-c.ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never happened", c.what)
		}
	}
	if got := <-later; !got.Equal(epoch.Add(2 * time.Second)) {
		t.Fatalf("timer after the blocked callback fired at %v", got)
	}
	close(release)
}

// TestAfterFuncNonPositiveRunsAtOnce: a callback due now or in the past
// starts without the clock moving and leaves no timer behind.
func TestAfterFuncNonPositiveRunsAtOnce(t *testing.T) {
	v := NewVirtual(epoch)
	ran := make(chan time.Time, 2)
	v.AfterFunc(0, func() { ran <- v.Now() })
	v.AfterFunc(-time.Second, func() { ran <- v.Now() })
	for i := 0; i < 2; i++ {
		select {
		case got := <-ran:
			if !got.Equal(epoch) {
				t.Fatalf("callback ran at %v, want epoch", got)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a non-positive AfterFunc did not run")
		}
	}
	if n := v.PendingWaiters(); n != 0 {
		t.Fatalf("%d timers left behind", n)
	}
}

// TestDriveRunsCallbackChain: under Drive, a chain of callbacks that
// each re-arm the next holds no goroutine between links, and the clock
// still moves link by link to the chain's last deadline.
func TestDriveRunsCallbackChain(t *testing.T) {
	const links = 1000
	v := NewVirtual(epoch)
	finished := make(chan time.Time, 1)
	n := 0
	var link func()
	link = func() {
		if n++; n == links {
			finished <- v.Now()
			return
		}
		v.AfterFunc(time.Millisecond, link)
	}
	v.AfterFunc(time.Millisecond, link)
	stop := v.Drive()
	defer stop()
	if got, want := <-finished, epoch.Add(links*time.Millisecond); !got.Equal(want) {
		t.Fatalf("chain ended at %v, want %v", got, want)
	}
}

// TestDriveCallbackSleepsOnClock: a callback that sleeps on the clock is
// a parked goroutine like any other, so Drive moves the clock to wake it.
func TestDriveCallbackSleepsOnClock(t *testing.T) {
	v := NewVirtual(epoch)
	woke := make(chan time.Time, 1)
	v.AfterFunc(time.Second, func() {
		v.Sleep(time.Second)
		woke <- v.Now()
	})
	stop := v.Drive()
	defer stop()
	if got := <-woke; !got.Equal(epoch.Add(2 * time.Second)) {
		t.Fatalf("sleeping callback woke at %v", got)
	}
}

// TestDriveStopMovesNothing: once stop is called the clock stays put. The
// caller parks in stop until the Drive goroutine exits, so a Drive goroutine
// that took its snapshot then would read every goroutine as blocked and fire
// the next timer after the run it drove had ended.
func TestDriveStopMovesNothing(t *testing.T) {
	for i := 0; i < 200; i++ {
		v := NewVirtual(epoch)
		v.After(time.Millisecond)
		stop := v.Drive()
		// Running holds the clock; spin a varying while so that stop
		// lands at every point of the Drive goroutine's check loop.
		for start := time.Now(); time.Since(start) < time.Duration(i%40)*5*time.Microsecond; {
		}
		stop()
		if got := v.Now(); !got.Equal(epoch) {
			t.Fatalf("run %d: clock moved to %v after stop", i, got)
		}
	}
}

// TestAllBlockedReadsRuntimeSemaphoresAsRunning: "semacquire" is a
// goroutine parked until another one releases it only when the sync
// package parked it. A goroutine that starts a GC while a stop-the-world
// holds the runtime's semaphore prints the same state over the user
// frame that allocated; it runs on as soon as the runtime lets go, so
// it holds the clock. Read as blocked, the driver moved the clock in the
// middle of a commit that takes no virtual time.
func TestAllBlockedReadsRuntimeSemaphoresAsRunning(t *testing.T) {
	const waiting = "goroutine 1 [chan receive]:\nmain.main()\n\t/src/main.go:9 +0x1d"
	for _, c := range []struct {
		name, g string
		blocked bool
	}{
		{"WaitGroup, go1.24", "goroutine 7 [sync.WaitGroup.Wait]:\nsync.runtime_SemacquireWaitGroup(0xc0000a4008?)\n\t/go/src/runtime/sema.go:110 +0x25\nsync.(*WaitGroup).Wait(0xc0000a4000?)", true},
		{"WaitGroup, go1.22", "goroutine 7 [semacquire]:\nsync.runtime_Semacquire(0xc0000a4008?)\n\t/go/src/runtime/sema.go:62 +0x25\nsync.(*WaitGroup).Wait(0xc0000a4000?)", true},
		{"GC start", "goroutine 542 [semacquire]:\nrepro/internal/scene.(*AddNodeOp).apply(0xc0007e2e70, 0xc0001da4b0)\n\t/src/internal/scene/ops.go:72 +0x28", false},
		{"fd lock", "goroutine 9 [semacquire]:\ninternal/poll.runtime_Semacquire(0xc000120038?)\n\t/go/src/runtime/sema.go:76 +0x25", false},
		{"mutex", "goroutine 8 [sync.Mutex.Lock, 2 minutes]:\nsync.runtime_SemacquireMutex(0xc000010010?, 0x0?, 0x1?)", true},
	} {
		if got := allBlocked([]byte(waiting+"\n\n"+c.g+"\n"), nil); got != c.blocked {
			t.Errorf("%s: allBlocked = %v, want %v", c.name, got, c.blocked)
		}
	}
}
