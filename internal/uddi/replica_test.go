package uddi

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/vclock"
)

const replicaTTL = 3 * time.Second

func seedReplicas(t *testing.T, r *Registry, now time.Time, rows ...Replica) {
	t.Helper()
	for _, rep := range rows {
		if _, err := r.RegisterReplica(rep, replicaTTL, now); err != nil {
			t.Fatalf("RegisterReplica(%+v): %v", rep, err)
		}
	}
}

func TestRegisterReplicaValidation(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(0, 0)
	cases := []struct {
		name string
		rep  Replica
		ttl  time.Duration
	}{
		{"no session", Replica{Name: "ds-01", Role: RoleReplica}, replicaTTL},
		{"no name", Replica{Session: "s", Role: RoleReplica}, replicaTTL},
		{"bad role", Replica{Session: "s", Name: "ds-01", Role: "observer"}, replicaTTL},
		{"zero ttl", Replica{Session: "s", Name: "ds-01", Role: RoleReplica}, 0},
	}
	for _, c := range cases {
		if _, err := r.RegisterReplica(c.rep, c.ttl, now); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := r.ReportReplica("s", "ds-01", 5, replicaTTL, now); err == nil {
		t.Errorf("ReportReplica on unregistered row must fail")
	}
}

func TestRegisterPrimaryDemotesPrevious(t *testing.T) {
	r := NewRegistry()
	now := time.Unix(0, 0)
	seedReplicas(t, r, now,
		Replica{Session: "s", Name: "ds-01", Region: "eu", Role: RolePrimary, Version: 10},
		Replica{Session: "s", Name: "ds-02", Region: "eu", Role: RoleReplica, Version: 10},
	)
	// Failover: ds-02 becomes the primary; the old row must demote.
	seedReplicas(t, r, now,
		Replica{Session: "s", Name: "ds-02", Region: "eu", Role: RolePrimary, Version: 10},
	)
	primaries := 0
	for _, rep := range r.QueryReplicas("s", "eu", now) {
		if rep.Role == RolePrimary {
			primaries++
			if rep.Name != "ds-02" {
				t.Errorf("primary is %q, want ds-02", rep.Name)
			}
		}
	}
	if primaries != 1 {
		t.Errorf("index shows %d primaries, want exactly 1", primaries)
	}
}

func TestQueryReplicasFiltersLapsedRows(t *testing.T) {
	r := NewRegistry()
	clk := vclock.NewVirtual(time.Unix(0, 0))
	seedReplicas(t, r, clk.Now(),
		Replica{Session: "s", Name: "ds-01", Region: "eu", Role: RolePrimary, Version: 3},
		Replica{Session: "s", Name: "ds-02", Region: "us", Role: RoleReplica, Version: 3},
	)
	clk.Advance(replicaTTL / 2)
	// ds-02 heartbeats; ds-01 goes silent.
	if _, err := r.ReportReplica("s", "ds-02", 4, replicaTTL, clk.Now()); err != nil {
		t.Fatalf("ReportReplica: %v", err)
	}
	clk.Advance(replicaTTL/2 + time.Millisecond)
	got := r.QueryReplicas("s", "eu", clk.Now())
	if len(got) != 1 || got[0].Name != "ds-02" {
		t.Fatalf("lapsed row not filtered: got %+v", got)
	}
}

// TestQueryReplicasOrderingDeterministic is the satellite property test:
// for arbitrary seeded row sets, QueryReplicas returns the identical
// order on every call and from a freshly rebuilt registry, and the
// order respects region-match → version desc → name.
func TestQueryReplicasOrderingDeterministic(t *testing.T) {
	regions := []string{"eu", "eu/a", "us", "us/b", "ap"}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := vclock.NewVirtual(time.Unix(0, 0))
		n := 2 + rng.Intn(8)
		rows := make([]Replica, n)
		for i := range rows {
			rows[i] = Replica{
				Session: "s",
				Name:    fmt.Sprintf("ds-%02d", i),
				Region:  regions[rng.Intn(len(regions))],
				Role:    RoleReplica,
				Version: uint64(rng.Intn(4)), // collisions on purpose
			}
		}
		rows[rng.Intn(n)].Role = RolePrimary
		from := regions[rng.Intn(len(regions))]

		r1, r2 := NewRegistry(), NewRegistry()
		seedReplicas(t, r1, clk.Now(), rows...)
		// Rebuild in reverse registration order: map iteration must not
		// leak into the result.
		rev := append([]Replica(nil), rows...)
		for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
			rev[i], rev[j] = rev[j], rev[i]
		}
		seedReplicas(t, r2, clk.Now(), rev...)

		got := r1.QueryReplicas("s", from, clk.Now())
		if again := r1.QueryReplicas("s", from, clk.Now()); !reflect.DeepEqual(got, again) {
			t.Fatalf("seed %d: repeated query differs:\n%+v\n%+v", seed, got, again)
		}
		if other := r2.QueryReplicas("s", from, clk.Now()); !reflect.DeepEqual(got, other) {
			t.Fatalf("seed %d: registration order leaked into result:\n%+v\n%+v", seed, got, other)
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			di, dj := regionMatch(regionOf(from), got[i].Region), regionMatch(regionOf(from), got[j].Region)
			if di != dj {
				return di < dj
			}
			if got[i].Version != got[j].Version {
				return got[i].Version > got[j].Version
			}
			return got[i].Name < got[j].Name
		}) {
			t.Fatalf("seed %d: order violates region→version→name: %+v", seed, got)
		}
	}
}

// TestFactorEnforcementConverges is the satellite property test: a
// replication-factor enforcer driven purely by the index — count live
// rows, register fresh followers while short — restores the target
// factor after arbitrary kill sequences (drops and silent lapses), on
// the virtual clock.
func TestFactorEnforcementConverges(t *testing.T) {
	const factor = 3
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := vclock.NewVirtual(time.Unix(0, 0))
		r := NewRegistry()
		next := 0
		register := func(role ReplicaRole) {
			seedReplicas(t, r, clk.Now(), Replica{
				Session: "s",
				Name:    fmt.Sprintf("ds-%03d", next),
				Region:  []string{"eu", "us"}[next%2],
				Role:    role,
				Version: uint64(next),
			})
			next++
		}
		register(RolePrimary)
		for i := 1; i < factor; i++ {
			register(RoleReplica)
		}

		// enforce is one heartbeat round: live rows re-report, then the
		// enforcer tops the set back up to the factor.
		enforce := func() {
			for _, rep := range r.QueryReplicas("s", "eu", clk.Now()) {
				if _, err := r.ReportReplica("s", rep.Name, rep.Version, replicaTTL, clk.Now()); err != nil {
					t.Fatalf("seed %d: ReportReplica: %v", seed, err)
				}
			}
			for len(r.QueryReplicas("s", "", clk.Now())) < factor {
				register(RoleReplica)
			}
		}

		// Arbitrary kill sequence: each step kills up to factor rows by
		// drop (clean) or lapse (silence past the TTL), then the enforcer
		// runs. Lapse kills advance the clock past every live TTL, so the
		// enforcer must rebuild from zero in those rounds.
		for step := 0; step < 12; step++ {
			live := r.QueryReplicas("s", "eu", clk.Now())
			kills := rng.Intn(factor + 1)
			for k := 0; k < kills && len(live) > 0; k++ {
				i := rng.Intn(len(live))
				if rng.Intn(2) == 0 {
					if err := r.DropReplica("s", live[i].Name); err != nil {
						t.Fatalf("seed %d: DropReplica: %v", seed, err)
					}
					live = append(live[:i], live[i+1:]...)
				} else {
					// Silent death: just stop heartbeating this row; it
					// lapses when the clock moves.
					live = append(live[:i], live[i+1:]...)
				}
			}
			if rng.Intn(3) == 0 {
				clk.Advance(replicaTTL + time.Millisecond) // lapse everything silent
			} else {
				clk.Advance(replicaTTL / 3)
			}
			// Re-report only the rows we did not kill, then enforce.
			for _, rep := range live {
				if _, err := r.ReportReplica("s", rep.Name, rep.Version, replicaTTL, clk.Now()); err == nil {
					continue
				}
				// Row lapsed before this round's heartbeat: re-register.
				seedReplicas(t, r, clk.Now(), rep)
			}
			enforce()
			if n := len(r.QueryReplicas("s", "", clk.Now())); n < factor {
				t.Fatalf("seed %d step %d: factor %d not restored, have %d", seed, step, factor, n)
			}
		}
	}
}

func names(reps []Replica) []string {
	out := make([]string, len(reps))
	for i, rep := range reps {
		out[i] = rep.Name
	}
	return out
}

func TestReplicaSOAPRoundTrip(t *testing.T) {
	_, ts := newTestRegistry(t)
	p := Connect(ts.URL)
	clk := vclock.NewVirtual(time.Unix(0, 0))

	rep, err := p.RegisterReplica(Replica{
		Session: "s", Name: "ds-01", Region: "eu/a",
		AccessPoint: "tcp://h1:7000", Role: RolePrimary, Version: 2,
	}, replicaTTL, clk.Now())
	if err != nil {
		t.Fatalf("RegisterReplica: %v", err)
	}
	if rep.Expires != clk.Now().Add(replicaTTL) {
		t.Errorf("expiry %v, want %v", rep.Expires, clk.Now().Add(replicaTTL))
	}
	if _, err := p.RegisterReplica(Replica{
		Session: "s", Name: "ds-02", Region: "us/a",
		AccessPoint: "tcp://h2:7000", Role: RoleReplica, Version: 1,
	}, replicaTTL, clk.Now()); err != nil {
		t.Fatalf("RegisterReplica follower: %v", err)
	}

	clk.Advance(time.Second)
	if _, err := p.ReportReplica("s", "ds-02", 2, replicaTTL, clk.Now()); err != nil {
		t.Fatalf("ReportReplica: %v", err)
	}
	if _, err := p.ReportReplica("s", "ds-99", 2, replicaTTL, clk.Now()); err == nil {
		t.Fatalf("ReportReplica of unknown row must fail over SOAP too")
	}

	got, err := p.QueryReplicas("s", "us", clk.Now())
	if err != nil {
		t.Fatalf("QueryReplicas: %v", err)
	}
	if len(got) != 2 || got[0].Name != "ds-02" || got[1].Name != "ds-01" {
		t.Fatalf("QueryReplicas from us = %v, want [ds-02 ds-01]", names(got))
	}
	if got[0].AccessPoint != "tcp://h2:7000" || got[0].Role != RoleReplica {
		t.Errorf("row fields lost over SOAP: %+v", got[0])
	}

	if err := p.DropReplica("s", "ds-01"); err != nil {
		t.Fatalf("DropReplica: %v", err)
	}
	got, err = p.QueryReplicas("s", "eu", clk.Now())
	if err != nil {
		t.Fatalf("QueryReplicas: %v", err)
	}
	if len(got) != 1 || got[0].Name != "ds-02" {
		t.Fatalf("after drop: %v, want [ds-02]", names(got))
	}
}
