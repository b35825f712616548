package balance

import (
	"errors"
	"image"
	"testing"
	"testing/quick"

	"repro/internal/scene"
)

func item(id scene.NodeID, tris int) NodeItem {
	return NodeItem{ID: id, Cost: scene.Cost{Triangles: tris, Bytes: int64(tris) * 50}}
}

func svc(name string, workPerFrame float64) ServiceCapacity {
	return ServiceCapacity{Name: name, WorkPerFrame: workPerFrame, TextureBytes: 1 << 30}
}

func TestDistributeNodesFitsOne(t *testing.T) {
	nodes := []NodeItem{item(2, 1000), item(3, 2000)}
	asg, err := DistributeNodes(nodes, []ServiceCapacity{svc("a", 10_000)})
	if err != nil {
		t.Fatal(err)
	}
	if len(asg["a"]) != 2 {
		t.Errorf("assignment: %v", asg)
	}
}

func TestDistributeNodesBalances(t *testing.T) {
	var nodes []NodeItem
	for i := 0; i < 10; i++ {
		nodes = append(nodes, item(scene.NodeID(i+2), 1000))
	}
	asg, err := DistributeNodes(nodes, []ServiceCapacity{svc("a", 6000), svc("b", 6000)})
	if err != nil {
		t.Fatal(err)
	}
	if len(asg["a"])+len(asg["b"]) != 10 {
		t.Fatalf("nodes lost: %v", asg)
	}
	if len(asg["a"]) != 5 || len(asg["b"]) != 5 {
		t.Errorf("unbalanced: a=%d b=%d", len(asg["a"]), len(asg["b"]))
	}
}

func TestDistributeNodesRefusesOverload(t *testing.T) {
	nodes := []NodeItem{item(2, 100_000)}
	_, err := DistributeNodes(nodes, []ServiceCapacity{svc("a", 50_000)})
	var ie *ErrInsufficient
	if !errors.As(err, &ie) {
		t.Fatalf("want ErrInsufficient, got %v", err)
	}
	if ie.Needed <= ie.Available {
		t.Errorf("error fields: %+v", ie)
	}
	if ie.Error() == "" {
		t.Error("empty explanatory message")
	}
	// No services at all.
	if _, err := DistributeNodes(nodes, nil); err == nil {
		t.Error("no services accepted")
	}
}

func TestDistributeNodesFragmentation(t *testing.T) {
	// Total capacity suffices but no single service can hold the big node.
	nodes := []NodeItem{item(2, 8000)}
	_, err := DistributeNodes(nodes, []ServiceCapacity{svc("a", 5000), svc("b", 5000)})
	var ie *ErrInsufficient
	if !errors.As(err, &ie) {
		t.Fatalf("fragmented fit accepted: %v", err)
	}
}

func TestDistributeNodesTextureMemory(t *testing.T) {
	small := svc("a", 1e9)
	small.TextureBytes = 100           // tiny texture memory
	nodes := []NodeItem{item(2, 1000)} // needs 50000 bytes
	if _, err := DistributeNodes(nodes, []ServiceCapacity{small}); err == nil {
		t.Error("texture overcommit accepted")
	}
	big := svc("b", 1e9)
	asg, err := DistributeNodes(nodes, []ServiceCapacity{small, big})
	if err != nil {
		t.Fatal(err)
	}
	if len(asg["b"]) != 1 {
		t.Errorf("node not steered to service with texture room: %v", asg)
	}
}

func TestDistributeNodesRespectsExistingLoad(t *testing.T) {
	loaded := svc("a", 10_000)
	loaded.Assigned = 9_500
	fresh := svc("b", 10_000)
	asg, err := DistributeNodes([]NodeItem{item(2, 3000)}, []ServiceCapacity{loaded, fresh})
	if err != nil {
		t.Fatal(err)
	}
	if len(asg["b"]) != 1 {
		t.Errorf("node landed on loaded service: %v", asg)
	}
}

func TestPropDistributePreservesNodes(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) > 30 {
			sizes = sizes[:30]
		}
		var nodes []NodeItem
		total := 0
		for i, s := range sizes {
			tris := int(s%5000) + 1
			nodes = append(nodes, item(scene.NodeID(i+2), tris))
			total += tris
		}
		caps := []ServiceCapacity{
			svc("a", float64(total)), svc("b", float64(total)), svc("c", float64(total)),
		}
		asg, err := DistributeNodes(nodes, caps)
		if err != nil {
			return false
		}
		seen := map[scene.NodeID]int{}
		for _, ids := range asg {
			for _, id := range ids {
				seen[id]++
			}
		}
		if len(seen) != len(nodes) {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributeTilesProportional(t *testing.T) {
	tiles := DistributeTiles(100, 100, []ServiceCapacity{svc("fast", 3000), svc("slow", 1000)})
	if len(tiles) != 2 {
		t.Fatalf("tiles: %v", tiles)
	}
	fast, slow := tiles["fast"], tiles["slow"]
	if fast.Dy() <= slow.Dy() {
		t.Errorf("fast service got smaller tile: %v vs %v", fast, slow)
	}
	// Exact coverage.
	area := fast.Dx()*fast.Dy() + slow.Dx()*slow.Dy()
	if area != 100*100 {
		t.Errorf("coverage: %d", area)
	}
	if fast.Intersect(slow) != (image.Rectangle{}) {
		t.Error("tiles overlap")
	}
}

func TestDistributeTilesDegenerate(t *testing.T) {
	if got := DistributeTiles(100, 100, nil); len(got) != 0 {
		t.Error("tiles from no services")
	}
	if got := DistributeTiles(100, 100, []ServiceCapacity{svc("dead", 0)}); len(got) != 0 {
		t.Error("tiles for zero-speed service")
	}
	if got := DistributeTiles(0, 100, []ServiceCapacity{svc("a", 1)}); len(got) != 0 {
		t.Error("tiles for zero-width image")
	}
	// Extremely skewed shares must still cover everything.
	tiles := DistributeTiles(10, 10, []ServiceCapacity{svc("a", 1e9), svc("b", 1)})
	area := 0
	for _, r := range tiles {
		area += r.Dx() * r.Dy()
	}
	if area != 100 {
		t.Errorf("skewed coverage: %d", area)
	}
}

func TestMigrationOverloadDetection(t *testing.T) {
	th := DefaultThresholds()
	a := ServiceLoad{Capacity: svc("a", 10_000)}
	if !th.Observe(&a, 5) {
		t.Error("5 fps not overloaded (threshold 10)")
	}
	if th.Observe(&a, 30) {
		t.Error("30 fps overloaded")
	}
	// A record with no capacity yet is judged on its first report.
	var ghost ServiceLoad
	if !th.Observe(&ghost, 2) {
		t.Error("first report of a fresh record dropped")
	}
}

func TestMigrationUnderloadSmoothing(t *testing.T) {
	th := DefaultThresholds()
	c := svc("idle", 10_000)
	c.Assigned = 1000 // 10% utilization
	loads := []ServiceLoad{{Capacity: svc("busy", 1000)}, {Capacity: c}}
	busy, idle := &loads[0], &loads[1]

	over := map[string][]NodeItem{"busy": {item(2, 500), item(3, 800)}}
	th.Observe(busy, 4) // overloaded

	// One underload report is not enough (spike smoothing).
	th.Observe(idle, 60)
	if moves := th.PlanMigration(loads, over); len(moves) != 0 {
		t.Errorf("migrated after one report: %v", moves)
	}
	th.Observe(idle, 60)
	th.Observe(idle, 60)
	moves := th.PlanMigration(loads, over)
	if len(moves) == 0 {
		t.Fatal("no migration after smoothing window")
	}
	for _, m := range moves {
		if m.From != "busy" || m.To != "idle" {
			t.Errorf("bad move: %+v", m)
		}
	}
	// Smallest node moves first (fine-grained).
	if moves[0].NodeID != 2 {
		t.Errorf("first move: %+v", moves[0])
	}
}

func TestMigrationRespectsHelperCapacity(t *testing.T) {
	th := DefaultThresholds()
	th.UnderloadedFor = 1
	helper := svc("helper", 1000)
	helper.Assigned = 400 // spare 600
	loads := []ServiceLoad{{Capacity: svc("busy", 100)}, {Capacity: helper}}
	th.Observe(&loads[0], 3)
	th.Observe(&loads[1], 60)

	over := map[string][]NodeItem{"busy": {item(2, 500), item(3, 500), item(4, 500)}}
	moves := th.PlanMigration(loads, over)
	// Helper can absorb only one 500-work node.
	if len(moves) != 1 {
		t.Fatalf("moves: %v", moves)
	}
}

func TestNeedRecruitment(t *testing.T) {
	th := DefaultThresholds()
	th.UnderloadedFor = 1
	idle := svc("idle", 10_000)
	idle.Assigned = 10
	loads := []ServiceLoad{{Capacity: svc("busy", 100)}, {Capacity: idle}}
	th.Observe(&loads[0], 2)
	if !th.NeedRecruitment(loads[:1]) {
		t.Error("overloaded alone should trigger recruitment")
	}
	// A smoothed underloaded helper cancels recruitment.
	th.Observe(&loads[1], 60)
	if th.NeedRecruitment(loads) {
		t.Error("recruitment despite available helper")
	}
	// Removing the helper restores the need.
	if !th.NeedRecruitment(loads[:1]) {
		t.Error("recruitment not needed after helper left")
	}
}
