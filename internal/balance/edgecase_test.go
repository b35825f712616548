package balance

import (
	"errors"
	"testing"
)

// Edge-case behaviour of PlanMigration and ReassignNodes that the main
// tests leave implicit: what the planner does when every service is
// drowning, when there are no services at all, and when a session runs
// on a single service. These are the states the overload-protection
// layer drives the system through, so the contracts are asserted here
// rather than discovered in production.

// TestPlanMigrationAllOverloaded: every service below the FPS floor
// means there is no helper — the plan is empty (migration cannot help;
// NeedRecruitment is the escalation path).
func TestPlanMigrationAllOverloaded(t *testing.T) {
	th := DefaultThresholds()
	var loads []ServiceLoad
	for _, n := range []string{"a", "b", "c"} {
		sl := ServiceLoad{Capacity: svc(n, 1000)}
		th.Observe(&sl, 3) // all overloaded
		loads = append(loads, sl)
	}
	assigned := map[string][]NodeItem{
		"a": {item(2, 500)}, "b": {item(3, 500)}, "c": {item(4, 500)},
	}
	if moves := th.PlanMigration(loads, assigned); len(moves) != 0 {
		t.Fatalf("all-overloaded plan should be empty, got %v", moves)
	}
	if !th.NeedRecruitment(loads) {
		t.Fatal("all services overloaded must escalate to recruitment")
	}
}

// TestPlanMigrationEmptyEngine: with no services at all the policy
// plans nothing and needs no recruitment (nothing is overloaded).
func TestPlanMigrationEmptyEngine(t *testing.T) {
	th := DefaultThresholds()
	if moves := th.PlanMigration(nil, map[string][]NodeItem{}); len(moves) != 0 {
		t.Fatalf("no services planned moves: %v", moves)
	}
	if th.NeedRecruitment(nil) {
		t.Fatal("no services should not recruit")
	}
}

// TestPlanMigrationSingleService: a one-service session has nowhere to
// migrate to — the plan is empty whether the service is healthy or
// overloaded, and only the overloaded case recruits.
func TestPlanMigrationSingleService(t *testing.T) {
	th := DefaultThresholds()
	loads := []ServiceLoad{{Capacity: svc("solo", 1000)}}
	assigned := map[string][]NodeItem{"solo": {item(2, 500), item(3, 300)}}

	th.Observe(&loads[0], 60) // healthy
	if moves := th.PlanMigration(loads, assigned); len(moves) != 0 {
		t.Fatalf("healthy solo service planned moves: %v", moves)
	}
	if th.NeedRecruitment(loads) {
		t.Fatal("healthy solo service should not recruit")
	}

	th.Observe(&loads[0], 3) // overloaded
	if moves := th.PlanMigration(loads, assigned); len(moves) != 0 {
		t.Fatalf("solo service cannot migrate to itself, got %v", moves)
	}
	if !th.NeedRecruitment(loads) {
		t.Fatal("overloaded solo service must recruit")
	}
}

// TestPlanMigrationUnavailablePeer: a breaker-open peer is drained
// (moves away from it) and never receives work, even if its last load
// report looked healthy and underloaded.
func TestPlanMigrationUnavailablePeer(t *testing.T) {
	th := DefaultThresholds()
	th.UnderloadedFor = 1

	helper := svc("helper", 10_000)
	helper.Assigned = 100
	loads := []ServiceLoad{{Capacity: svc("broken", 10_000)}, {Capacity: helper}}
	broken, help := &loads[0], &loads[1]
	th.Observe(broken, 60) // looked healthy and idle...
	th.Observe(help, 60)
	broken.Unavailable = true // ...then its breaker opened

	assigned := map[string][]NodeItem{"broken": {item(2, 500)}}
	moves := th.PlanMigration(loads, assigned)
	if len(moves) != 1 || moves[0].From != "broken" || moves[0].To != "helper" {
		t.Fatalf("want broken->helper drain, got %v", moves)
	}

	// With the only helper broken, recruitment becomes necessary.
	broken.Unavailable = false
	help.Unavailable = true
	th.Observe(broken, 3)
	if !th.NeedRecruitment(loads) {
		t.Fatal("breaker-open helper must not cancel recruitment")
	}
	if th.helps(*help) {
		t.Fatal("helper still counted as available")
	}
	if th.overloaded(ServiceLoad{Capacity: svc("unknown", 1000)}) {
		t.Fatal("a service with no reports and no breaker verdict must count as available")
	}
}

// TestReassignNodesEmptyServiceSet: no survivors means a typed
// ErrInsufficient naming the full orphaned load, with or without
// overcommit.
func TestReassignNodesEmptyServiceSet(t *testing.T) {
	orphans := []NodeItem{item(2, 500), item(3, 300)}
	for _, overcommit := range []bool{false, true} {
		_, err := ReassignNodes(orphans, nil, overcommit)
		var ei *ErrInsufficient
		if !errors.As(err, &ei) {
			t.Fatalf("overcommit=%v: want ErrInsufficient, got %v", overcommit, err)
		}
		if ei.Available != 0 || ei.Needed <= 0 {
			t.Fatalf("overcommit=%v: shortfall misreported: %+v", overcommit, ei)
		}
	}
}

// TestReassignNodesSingleServiceTakesAll: with one survivor and
// overcommit, every orphan lands on it regardless of capacity — frames
// degrade rather than stall.
func TestReassignNodesSingleServiceTakesAll(t *testing.T) {
	orphans := []NodeItem{item(2, 5000), item(3, 5000), item(4, 5000)}
	sole := svc("sole", 1000) // far too small
	asg, err := ReassignNodes(orphans, []ServiceCapacity{sole}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(asg["sole"]) != 3 {
		t.Fatalf("sole survivor should hold all orphans, got %v", asg)
	}
	// Without overcommit the same placement is refused instead.
	if _, err := ReassignNodes(orphans, []ServiceCapacity{sole}, false); err == nil {
		t.Fatal("undersized survivor accepted orphans without overcommit")
	}
}

// TestReassignNodesAllOverloadedSurvivors: every survivor already past
// capacity still absorbs orphans under overcommit, spread by lowest
// utilization first.
func TestReassignNodesAllOverloadedSurvivors(t *testing.T) {
	a := svc("a", 1000)
	a.Assigned = 2000 // 200% utilization
	b := svc("b", 1000)
	b.Assigned = 1500 // 150% utilization
	asg, err := ReassignNodes([]NodeItem{item(2, 500)}, []ServiceCapacity{a, b}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(asg["b"]) != 1 {
		t.Fatalf("orphan should land on the least-loaded survivor, got %v", asg)
	}
}

func TestImbalance(t *testing.T) {
	cases := []struct {
		name   string
		counts map[string]int
		want   float64
	}{
		{"empty", map[string]int{}, 0},
		{"single", map[string]int{"a": 7}, 0},
		{"all-zero", map[string]int{"a": 0, "b": 0}, 0},
		{"even", map[string]int{"a": 10, "b": 10, "c": 10}, 0},
		{"one-heavy", map[string]int{"a": 12, "b": 9, "c": 9}, 0.2},
		{"one-empty", map[string]int{"a": 10, "b": 10, "c": 0}, 1.0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Imbalance(tc.counts)
			if diff := got - tc.want; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("Imbalance(%v) = %v, want %v", tc.counts, got, tc.want)
			}
		})
	}
}
