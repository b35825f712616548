package admission

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// step is one call against a gate: an admit (release < 0) or the
// release of the release-th admitted call.
type step struct {
	tenant      string
	interactive bool
	deadline    time.Duration // relative to now; 0 = none, ≤ 0 expired
	expired     bool          // deadline is now, not ahead of it

	release int
	dt      time.Duration

	want  string        // decline reason; "" = admitted (or released)
	retry time.Duration // the decline's RetryAfter

	inflight int           // admission_inflight after the step
	ewma     time.Duration // admission_ewma_ns after the step (-1 = unchecked)
}

func admit(tenant string, interactive bool, want string, retry time.Duration, inflight int) step {
	return step{tenant: tenant, interactive: interactive, want: want, retry: retry, release: -1, inflight: inflight, ewma: -1}
}

func release(i int, dt time.Duration, inflight int, ewma time.Duration) step {
	return step{release: i, dt: dt, inflight: inflight, ewma: ewma}
}

type gateCase struct {
	name    string
	depth   int
	tenants []string
	steps   []step
}

const idle = 25 * time.Millisecond

// TestGate drives the gate's rules through one table: the class limits,
// fair share contended and idle, a lone tenant at every depth, expiry
// before feasibility, the retry-after fallback and EWMA, and release
// idempotence.
func TestGate(t *testing.T) {
	cases := []gateCase{
		{
			name: "interactive fills depth, background half", depth: 4, tenants: []string{"a"},
			steps: []step{
				admit("a", true, "", 0, 1),
				admit("a", true, "", 0, 2),
				admit("a", true, "", 0, 3),
				admit("a", true, "", 0, 4),
				admit("a", true, ReasonQueueFull, 4*idle, 4),
				admit("a", false, ReasonQueueFull, 4*idle, 4),
			},
		},
		{
			name: "background capped at half, interactive takes the rest", depth: 4, tenants: []string{"a"},
			steps: []step{
				admit("a", false, "", 0, 1),
				admit("a", false, "", 0, 2),
				admit("a", false, ReasonQueueFull, 2*idle, 2),
				admit("a", true, "", 0, 3),
				admit("a", true, "", 0, 4),
			},
		},
		{
			name: "background limit floors at one", depth: 1, tenants: []string{"a"},
			steps: []step{
				admit("a", false, "", 0, 1),
				admit("a", false, ReasonQueueFull, idle, 1),
			},
		},
		{
			name: "contended gate caps a tenant at its share", depth: 8, tenants: []string{"a", "b"},
			steps: []step{
				admit("a", true, "", 0, 1),
				admit("a", true, "", 0, 2),
				admit("a", true, "", 0, 3),
				admit("a", true, "", 0, 4),
				admit("a", true, ReasonTenantShare, 4*idle, 4),
				admit("b", true, "", 0, 5),
			},
		},
		{
			name: "idle gate lets a tenant burst past its share", depth: 8, tenants: []string{"a", "b", "c", "d"},
			steps: []step{
				// Share is 8/4 = 2, but the gate is idle until 4 in flight.
				admit("a", true, "", 0, 1),
				admit("a", true, "", 0, 2),
				admit("a", true, "", 0, 3),
				admit("a", true, "", 0, 4),
				admit("a", true, ReasonTenantShare, 4*idle, 4),
				admit("b", true, "", 0, 5),
			},
		},
		{
			name: "expiry, then feasibility", depth: 4, tenants: []string{"a"},
			steps: []step{
				{tenant: "a", interactive: true, expired: true, want: ReasonExpired, release: -1, ewma: -1},
				// No estimate yet: any deadline ahead of now is feasible.
				{tenant: "a", interactive: true, deadline: time.Nanosecond, release: -1, inflight: 1, ewma: -1},
				release(1, 10*time.Millisecond, 0, 10*time.Millisecond),
				{tenant: "a", interactive: true, deadline: 10*time.Millisecond - 1, want: ReasonDeadline, release: -1, ewma: -1},
				{tenant: "a", interactive: true, deadline: 10 * time.Millisecond, release: -1, inflight: 1, ewma: -1},
				// One in flight: the next finishes two estimates out.
				{tenant: "a", interactive: true, deadline: 20*time.Millisecond - 1, want: ReasonDeadline, release: -1, inflight: 1, ewma: -1},
				{tenant: "a", interactive: true, deadline: 20 * time.Millisecond, release: -1, inflight: 2, ewma: -1},
			},
		},
		{
			name: "retry-after falls back to the idle estimate, then tracks the EWMA", depth: 2, tenants: []string{"a"},
			steps: []step{
				admit("a", true, "", 0, 1),
				admit("a", true, "", 0, 2),
				admit("a", true, ReasonQueueFull, 2*idle, 2),
				release(0, 100*time.Millisecond, 1, 100*time.Millisecond),
				release(1, 20*time.Millisecond, 0, 80*time.Millisecond), // (3·100 + 20) / 4
				admit("a", true, "", 0, 1),
				admit("a", true, "", 0, 2),
				admit("a", true, ReasonQueueFull, 160*time.Millisecond, 2),
				release(3, 0, 1, 80*time.Millisecond), // a zero duration leaves the estimate
			},
		},
		{
			name: "a double release frees one slot", depth: 2, tenants: []string{"a"},
			steps: []step{
				admit("a", true, "", 0, 1),
				admit("a", true, "", 0, 2),
				release(0, time.Millisecond, 1, time.Millisecond),
				release(0, time.Millisecond, 1, time.Millisecond),
				admit("a", true, "", 0, 2),
				admit("a", true, ReasonQueueFull, 2*time.Millisecond, 2),
			},
		},
	}
	// A lone tenant's share is the class limit, which the queue bound
	// enforces first: it never draws tenant-share at any depth.
	for depth := 1; depth <= 16; depth++ {
		c := gateCase{name: fmt.Sprintf("lone tenant at depth %d", depth), depth: depth, tenants: []string{"solo"}}
		bgLimit := max(depth/2, 1)
		for i := 1; i <= bgLimit; i++ {
			c.steps = append(c.steps, admit("solo", true, "", 0, i))
		}
		c.steps = append(c.steps, admit("solo", false, ReasonQueueFull, time.Duration(bgLimit)*idle, bgLimit))
		for i := bgLimit + 1; i <= depth; i++ {
			c.steps = append(c.steps, admit("solo", true, "", 0, i))
		}
		c.steps = append(c.steps, admit("solo", true, ReasonQueueFull, time.Duration(depth)*idle, depth))
		cases = append(cases, c)
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			clk := vclock.NewVirtual(time.Unix(0, 0))
			met := telemetry.NewRegistry(clk)
			g := New("svc", c.depth, idle, clk, met)
			for _, tenant := range c.tenants {
				g.Register(tenant)
			}
			var releases []func(time.Duration)
			wantAdmitted, wantShed := 0, 0
			for i, s := range c.steps {
				if s.release >= 0 {
					releases[s.release](s.dt)
				} else {
					var deadline time.Time
					switch {
					case s.expired:
						deadline = clk.Now()
					case s.deadline > 0:
						deadline = clk.Now().Add(s.deadline)
					}
					rel, err := g.Admit(s.tenant, s.interactive, deadline)
					releases = append(releases, rel)
					if s.want == "" {
						if err != nil {
							t.Fatalf("step %d: %v, want admitted", i, err)
						}
						wantAdmitted++
					} else {
						var dec *transport.Decline
						if !errors.As(err, &dec) || dec.Reason != s.want || dec.Service != "svc" {
							t.Fatalf("step %d: %v, want svc %q decline", i, err, s.want)
						}
						if dec.RetryAfter != s.retry {
							t.Fatalf("step %d: retry after %v, want %v", i, dec.RetryAfter, s.retry)
						}
						wantShed++
					}
				}
				snap := met.Snapshot()
				if got, _ := snap.Get("svc", "admission_inflight", ""); got.Value != int64(s.inflight) {
					t.Fatalf("step %d: inflight %d, want %d", i, got.Value, s.inflight)
				}
				if got, _ := snap.Get("svc", "admission_ewma_ns", ""); s.ewma >= 0 && got.Value != int64(s.ewma) {
					t.Fatalf("step %d: ewma %v, want %v", i, time.Duration(got.Value), s.ewma)
				}
			}
			if admitted, shed := g.Stats(); admitted != wantAdmitted || shed != wantShed {
				t.Errorf("stats = %d admitted %d shed, want %d, %d", admitted, shed, wantAdmitted, wantShed)
			}
		})
	}
}

// TestDeclineAfterAdmission: a refusal found after admission (a node
// with no free slot) is counted and hinted like the gate's own.
func TestDeclineAfterAdmission(t *testing.T) {
	clk := vclock.NewVirtual(time.Unix(0, 0))
	met := telemetry.NewRegistry(clk)
	g := New("gw", 4, idle, clk, met)
	if _, err := g.Admit("a", true, time.Time{}); err != nil {
		t.Fatal(err)
	}
	dec := g.Decline("capacity")
	if dec.Service != "gw" || dec.Reason != "capacity" || dec.RetryAfter != idle {
		t.Fatalf("decline = %+v", dec)
	}
	if _, shed := g.Stats(); shed != 1 {
		t.Errorf("shed = %d, want 1", shed)
	}
	if got := met.Snapshot().CounterValue("gw", "admission_declined_total", "capacity"); got != 1 {
		t.Errorf("capacity declines counted %d, want 1", got)
	}
}
