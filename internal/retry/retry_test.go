package retry

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/vclock"
)

func TestDelayDeterministicPerSeed(t *testing.T) {
	p := DefaultPolicy()
	for attempt := 1; attempt <= 6; attempt++ {
		if p.Delay(attempt, 99) != p.Delay(attempt, 99) {
			t.Fatalf("attempt %d: same seed gave different delays", attempt)
		}
	}
	if p.Delay(1, 1) == p.Delay(1, 2) && p.Delay(2, 1) == p.Delay(2, 2) {
		t.Fatal("different seeds never changed the jittered delay")
	}
}

func TestDelayExponentialAndCapped(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Multiplier: 2}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, time.Second, time.Second,
	}
	for i, w := range want {
		if got := p.Delay(i+1, 0); got != w {
			t.Fatalf("attempt %d: delay %v, want %v", i+1, got, w)
		}
	}
}

func TestDelayJitterBounded(t *testing.T) {
	p := Policy{BaseDelay: time.Second, Multiplier: 2, Jitter: 0.2}
	for seed := uint64(0); seed < 200; seed++ {
		d := p.Delay(1, seed)
		if d < 800*time.Millisecond || d > 1200*time.Millisecond {
			t.Fatalf("seed %d: jittered delay %v outside ±20%%", seed, d)
		}
	}
}

func TestDoSucceedsAfterFailures(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	stop := clk.Drive()
	defer stop()
	calls := 0
	err := Do(context.Background(), clk, DefaultPolicy(), func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("transient %d", calls)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want success on 3rd call", err, calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	stop := clk.Drive()
	defer stop()
	sentinel := errors.New("down")
	calls := 0
	err := Do(context.Background(), clk, Policy{MaxAttempts: 4, BaseDelay: time.Millisecond}, func() error {
		calls++
		return sentinel
	})
	if calls != 4 {
		t.Fatalf("made %d calls, want 4", calls)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("exhaustion error %v does not wrap the last failure", err)
	}
}

func TestDoHonorsContextCancel(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	ctx, cancel := context.WithCancel(context.Background())
	sentinel := errors.New("down")
	calls := 0
	errc := make(chan error, 1)
	go func() {
		// No clock driver: Do blocks in backoff until cancel.
		errc <- Do(ctx, clk, Policy{MaxAttempts: 0, BaseDelay: time.Second}, func() error {
			calls++
			return sentinel
		})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, sentinel) && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel surfaced as %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do never returned after context cancel")
	}
	if calls != 1 {
		t.Fatalf("made %d calls before cancel, want 1", calls)
	}
}

func TestSleepVirtualClockDeterministicSchedule(t *testing.T) {
	// The whole backoff schedule replays identically because jitter
	// derives from the virtual clock reading, which is itself a pure
	// function of the advancement sequence.
	run := func() []time.Duration {
		clk := vclock.NewVirtual(time.Unix(0, 0))
		p := Policy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, Multiplier: 2, Jitter: 0.5}
		var waits []time.Duration
		done := make(chan struct{})
		go func() {
			defer close(done)
			for attempt := 1; attempt <= 3; attempt++ {
				before := clk.Now()
				p.Sleep(context.Background(), clk, attempt)
				waits = append(waits, clk.Now().Sub(before))
			}
		}()
		stop := clk.Drive()
		defer stop()
		<-done
		return waits
	}
	w1, w2 := run(), run()
	if len(w1) != 3 || len(w2) != 3 {
		t.Fatalf("runs incomplete: %v %v", w1, w2)
	}
	for i := range w1 {
		if w1[i] <= 0 {
			t.Fatalf("wait %d was %v", i, w1[i])
		}
	}
}
