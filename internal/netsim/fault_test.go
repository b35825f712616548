package netsim

import (
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/vclock"
)

// fastLink is effectively instantaneous, so deliveries need no clock
// advancement (serialization rounds to ~0 and latency is zero).
func fastLink() Link {
	return Link{BandwidthBps: 1e15, Efficiency: 1, Latency: 0, Quality: 1}
}

func TestDropWritesDeterministic(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	a, b := SimPipe(clk, fastLink(), fastLink())
	a.InjectFaults(NewFaults(1).DropWrites(1))

	for _, msg := range []string{"zero", "one", "two"} {
		if _, err := a.Write([]byte(msg)); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "zerotwo" {
		t.Fatalf("got %q, want dropped middle write", got)
	}
}

func TestDropFractionSameSeedSameSchedule(t *testing.T) {
	pattern := func(seed uint64) []bool {
		f := NewFaults(seed).DropFraction(0.3)
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, f.nextWrite(64).drop)
		}
		return out
	}
	p1, p2 := pattern(42), pattern(42)
	drops := 0
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("write %d: schedules diverge under the same seed", i)
		}
		if p1[i] {
			drops++
		}
	}
	if drops < 30 || drops > 90 {
		t.Fatalf("0.3 drop fraction dropped %d/200 writes", drops)
	}
	p3 := pattern(43)
	same := true
	for i := range p1 {
		if p1[i] != p3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestCorruptWriteFlipsBytesDeterministically(t *testing.T) {
	run := func() []byte {
		clk := vclock.NewVirtual(time.Unix(0, 0))
		a, b := SimPipe(clk, fastLink(), fastLink())
		a.InjectFaults(NewFaults(7).CorruptWrite(0))
		if _, err := a.Write(make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
		a.Close()
		got, err := io.ReadAll(b)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	g1, g2 := run(), run()
	if len(g1) != 128 {
		t.Fatalf("corruption changed length: %d", len(g1))
	}
	if string(g1) == string(make([]byte, 128)) {
		t.Fatal("corrupted write arrived unmodified")
	}
	if string(g1) != string(g2) {
		t.Fatal("corruption not deterministic across runs")
	}
}

func TestTruncateWrite(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	a, b := SimPipe(clk, fastLink(), fastLink())
	a.InjectFaults(NewFaults(1).TruncateWrite(0, 5))
	if n, err := a.Write([]byte("hello world")); err != nil || n != 11 {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	a.Close()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q, want truncated prefix", got)
	}
}

func TestKillAfterWritesFailsBothEnds(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	a, b := SimPipe(clk, fastLink(), fastLink())
	a.InjectFaults(NewFaults(1).KillAfterWrites(1))
	if _, err := a.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Write([]byte("doomed")); err != ErrKilled {
		t.Fatalf("second write: got %v, want ErrKilled", err)
	}
	buf := make([]byte, 16)
	if _, err := b.Read(buf); err != ErrKilled {
		t.Fatalf("peer read: got %v, want ErrKilled (in-flight data lost)", err)
	}
	if _, err := b.Write([]byte("x")); err != ErrKilled {
		t.Fatalf("peer write: got %v, want ErrKilled", err)
	}
}

func TestKillAtByteDeliversPrefixThenKills(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	a, b := SimPipe(clk, fastLink(), fastLink())
	a.InjectFaults(NewFaults(1).KillAtByte(40))

	n, err := a.Write(make([]byte, 100))
	if err != ErrKilled {
		t.Fatalf("write: got err %v, want ErrKilled", err)
	}
	if n != 40 {
		t.Fatalf("write reported %d bytes, want the 40-byte prefix", n)
	}
	got := make([]byte, 100)
	rn, rerr := b.Read(got)
	// The prefix was in flight when the kill landed: a killed connection
	// abandons in-flight data.
	if rerr != ErrKilled {
		t.Fatalf("read: n=%d err=%v, want ErrKilled", rn, rerr)
	}
}

func TestKillWakesBlockedReader(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	a, b := SimPipe(clk, fastLink(), fastLink())
	errc := make(chan error, 1)
	go func() {
		buf := make([]byte, 8)
		_, err := b.Read(buf)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the reader block
	a.Kill()
	select {
	case err := <-errc:
		if err != ErrKilled {
			t.Fatalf("got %v, want ErrKilled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked reader never woke after Kill")
	}
}

func TestReadDeadlineExpires(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	_, b := SimPipe(clk, fastLink(), fastLink())
	b.SetReadDeadline(clk.Now().Add(time.Second))

	stop := clk.Drive()
	defer stop()
	buf := make([]byte, 8)
	_, err := b.Read(buf)
	if err != ErrTimeout {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	var ne net.Error
	if ne, _ = err.(net.Error); ne == nil || !ne.Timeout() {
		t.Fatalf("ErrTimeout must satisfy net.Error with Timeout()=true")
	}
}

func TestReadDeadlineThenDataAfterClear(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	a, b := SimPipe(clk, fastLink(), fastLink())
	b.SetReadDeadline(clk.Now().Add(time.Second))
	stop := clk.Drive()
	defer stop()
	buf := make([]byte, 8)
	if _, err := b.Read(buf); err != ErrTimeout {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	// Deadline cleared: the pending delivery must still arrive.
	b.SetReadDeadline(time.Time{})
	if _, err := a.Write([]byte("late")); err != nil {
		t.Fatal(err)
	}
	n, err := b.Read(buf)
	if err != nil || string(buf[:n]) != "late" {
		t.Fatalf("read after clearing deadline: %q, %v", buf[:n], err)
	}
}

func TestStallUntilHoldsDelivery(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	a, b := SimPipe(clk, fastLink(), fastLink())
	release := clk.Now().Add(10 * time.Second)
	a.InjectFaults(NewFaults(1).StallUntil(release))
	if _, err := a.Write([]byte("held")); err != nil {
		t.Fatal(err)
	}
	// Before the stall release the read must time out.
	b.SetReadDeadline(clk.Now().Add(time.Second))
	stop := clk.Drive()
	buf := make([]byte, 8)
	if _, err := b.Read(buf); err != ErrTimeout {
		stop()
		t.Fatalf("read before stall release: got %v, want ErrTimeout", err)
	}
	// After the release it arrives.
	b.SetReadDeadline(time.Time{})
	n, err := b.Read(buf)
	stop()
	if err != nil || string(buf[:n]) != "held" {
		t.Fatalf("read after stall: %q, %v", buf[:n], err)
	}
	if clk.Now().Before(release) {
		t.Fatalf("delivery at %v, before stall release %v", clk.Now(), release)
	}
}

func TestLatencySpike(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	a, b := SimPipe(clk, fastLink(), fastLink())
	a.InjectFaults(NewFaults(1).SpikeLatency(0, 1, 3*time.Second))
	start := clk.Now()
	if _, err := a.Write([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	stop := clk.Drive()
	buf := make([]byte, 8)
	n, err := b.Read(buf)
	stop()
	if err != nil || string(buf[:n]) != "slow" {
		t.Fatalf("read: %q, %v", buf[:n], err)
	}
	if got := clk.Now().Sub(start); got < 3*time.Second {
		t.Fatalf("spiked delivery took %v, want >= 3s", got)
	}
}

// TestNoGoroutineLeakOnAbruptClose verifies that readers blocked on
// simulated connections exit when the peer closes or the connection is
// killed, leaving no goroutines behind.
func TestNoGoroutineLeakOnAbruptClose(t *testing.T) {
	before := runtime.NumGoroutine()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		a, b := SimPipe(clk, fastLink(), fastLink())
		wg.Add(2)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for {
				if _, err := a.Read(buf); err != nil {
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for {
				if _, err := b.Read(buf); err != nil {
					return
				}
			}
		}()
		a.Write([]byte("x"))
		b.Write([]byte("y"))
		if i%2 == 0 {
			a.Close()
		} else {
			a.Kill()
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("readers still blocked after close/kill")
	}
	// Allow the runtime to reap exited goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.Gosched()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}
