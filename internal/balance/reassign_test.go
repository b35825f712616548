package balance

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/scene"
)

func TestReassignNodesFitsSurvivors(t *testing.T) {
	orphans := []NodeItem{item(10, 1000), item(11, 2000)}
	survivors := []ServiceCapacity{
		{Name: "a", WorkPerFrame: 10_000, Assigned: 5_000, TextureBytes: 1 << 30},
		{Name: "b", WorkPerFrame: 10_000, Assigned: 2_000, TextureBytes: 1 << 30},
	}
	asg, err := ReassignNodes(orphans, survivors, false)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, ids := range asg {
		total += len(ids)
	}
	if total != 2 {
		t.Fatalf("orphans lost in reassignment: %v", asg)
	}
	// The less-loaded survivor takes the bigger orphan (greedy LPT).
	if len(asg["b"]) == 0 {
		t.Fatalf("least-loaded survivor got nothing: %v", asg)
	}
}

func TestReassignNodesSoleSurvivorOvercommitted(t *testing.T) {
	// One survivor far past capacity: without overcommit the session
	// refuses; with overcommit every orphan still lands on it so frames
	// keep flowing.
	orphans := []NodeItem{item(10, 8000), item(11, 8000), item(12, 8000)}
	sole := []ServiceCapacity{{Name: "last", WorkPerFrame: 10_000, Assigned: 4_000, TextureBytes: 1 << 20}}

	if _, err := ReassignNodes(orphans, sole, false); err == nil {
		t.Fatal("overloaded sole survivor accepted work without overcommit")
	}
	asg, err := ReassignNodes(orphans, sole, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(asg["last"]) != 3 {
		t.Fatalf("sole survivor should hold all orphans, got %v", asg)
	}
}

func TestReassignNodesAllOverloaded(t *testing.T) {
	orphans := []NodeItem{item(10, 5000)}
	services := []ServiceCapacity{
		{Name: "a", WorkPerFrame: 1000, Assigned: 1000, TextureBytes: 1 << 30},
		{Name: "b", WorkPerFrame: 1000, Assigned: 2000, TextureBytes: 1 << 30},
	}
	var ins *ErrInsufficient
	if _, err := ReassignNodes(orphans, services, false); !errors.As(err, &ins) {
		t.Fatalf("want ErrInsufficient, got %v", err)
	}
	// Overcommit picks the least-utilized service deterministically.
	asg, err := ReassignNodes(orphans, services, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(asg["a"]) != 1 {
		t.Fatalf("orphan should land on least-utilized 'a': %v", asg)
	}
}

func TestReassignNodesNoSurvivors(t *testing.T) {
	orphans := []NodeItem{item(10, 100)}
	if _, err := ReassignNodes(orphans, nil, true); err == nil {
		t.Fatal("reassignment with zero survivors must fail even with overcommit")
	}
}

func TestReassignNodesPrefersFittingBeforeOvercommit(t *testing.T) {
	// With overcommit allowed, a survivor with genuine spare capacity is
	// still preferred over overcommitting a fuller one.
	orphans := []NodeItem{item(10, 3000)}
	services := []ServiceCapacity{
		{Name: "full", WorkPerFrame: 10_000, Assigned: 9_500, TextureBytes: 1 << 30},
		{Name: "spare", WorkPerFrame: 10_000, Assigned: 1_000, TextureBytes: 1 << 30},
	}
	asg, err := ReassignNodes(orphans, services, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(asg["spare"]) != 1 {
		t.Fatalf("orphan should land on the survivor with spare capacity: %v", asg)
	}
}

func TestReassignNodesDeterministic(t *testing.T) {
	orphans := []NodeItem{item(10, 500), item(11, 500), item(12, 700)}
	services := []ServiceCapacity{
		{Name: "x", WorkPerFrame: 1000, TextureBytes: 1 << 30},
		{Name: "y", WorkPerFrame: 1000, TextureBytes: 1 << 30},
	}
	first, err := ReassignNodes(orphans, services, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := ReassignNodes(orphans, services, true)
		if err != nil {
			t.Fatal(err)
		}
		for name, ids := range first {
			if len(again[name]) != len(ids) {
				t.Fatalf("run %d: assignment differs for %s: %v vs %v", i, name, again, first)
			}
			for j := range ids {
				if again[name][j] != ids[j] {
					t.Fatalf("run %d: order differs for %s", i, name)
				}
			}
		}
	}
}

// TestPropPlacementEntryPointsAgree: over random nodes and capacities,
// DistributeNodes and ReassignNodes are one packing. Without overcommit
// they agree — the same assignment, or both refuse. With overcommit no
// node is dropped: every node lands exactly once, and wherever the
// packing fits without overcommit it is that packing.
func TestPropPlacementEntryPointsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		nodes := make([]NodeItem, 1+rng.Intn(12))
		for i := range nodes {
			nodes[i] = item(scene.NodeID(i+1), 1+rng.Intn(4000))
		}
		services := make([]ServiceCapacity, 1+rng.Intn(4))
		for i := range services {
			services[i] = ServiceCapacity{
				Name:         string(rune('a' + i)),
				WorkPerFrame: float64(rng.Intn(12000)),
				Assigned:     float64(rng.Intn(3000)),
				TextureBytes: int64(rng.Intn(400_000)),
			}
		}

		want, wantErr := DistributeNodes(nodes, services)
		got, err := ReassignNodes(nodes, services, false)
		if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: ReassignNodes without overcommit = %v, %v; DistributeNodes = %v, %v", trial, got, err, want, wantErr)
		}

		over, err := ReassignNodes(nodes, services, true)
		if err != nil {
			t.Fatalf("trial %d: overcommit refused: %v", trial, err)
		}
		placed := map[scene.NodeID]int{}
		for _, ids := range over {
			for _, id := range ids {
				placed[id]++
			}
		}
		for _, n := range nodes {
			if placed[n.ID] != 1 {
				t.Fatalf("trial %d: node %d placed %d times: %v", trial, n.ID, placed[n.ID], over)
			}
		}
		if len(placed) != len(nodes) {
			t.Fatalf("trial %d: %d nodes placed for %d orphans: %v", trial, len(placed), len(nodes), over)
		}
		if wantErr == nil && !reflect.DeepEqual(over, want) {
			t.Fatalf("trial %d: a packing that fits was overcommitted differently: %v vs %v", trial, over, want)
		}
	}
}
