package scene

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
)

func meshPayload(tris int) *MeshPayload {
	return &MeshPayload{Mesh: genmodel.Sphere(mathx.Vec3{}, 1, 8, tris/16+2)}
}

// buildTestScene returns a scene:
//
//	root
//	├── group "g" (translate +5x)
//	│   └── mesh "m"
//	└── avatar "ava"
func buildTestScene(t *testing.T) (*Scene, NodeID, NodeID, NodeID) {
	t.Helper()
	s := New()
	g := &Node{ID: s.AllocID(), Name: "g", Transform: mathx.Translate(mathx.V3(5, 0, 0))}
	if err := s.Attach(RootID, g); err != nil {
		t.Fatal(err)
	}
	m := &Node{ID: s.AllocID(), Name: "m", Transform: mathx.Identity(), Payload: meshPayload(100)}
	if err := s.Attach(g.ID, m); err != nil {
		t.Fatal(err)
	}
	a := &Node{ID: s.AllocID(), Name: "ava", Transform: mathx.Identity(),
		Payload: &AvatarPayload{User: "desktop", Color: mathx.V3(1, 0, 0)}}
	if err := s.Attach(RootID, a); err != nil {
		t.Fatal(err)
	}
	return s, g.ID, m.ID, a.ID
}

func TestNewScene(t *testing.T) {
	s := New()
	if s.Root.ID != RootID || s.NodeCount() != 1 {
		t.Fatalf("fresh scene: root=%d count=%d", s.Root.ID, s.NodeCount())
	}
	if s.Node(RootID) != s.Root {
		t.Error("root not indexed")
	}
	if s.Root.Kind() != KindGroup {
		t.Errorf("root kind: %v", s.Root.Kind())
	}
}

func TestAttachErrors(t *testing.T) {
	s := New()
	if err := s.Attach(RootID, nil); err == nil {
		t.Error("nil node accepted")
	}
	if err := s.Attach(RootID, &Node{}); err == nil {
		t.Error("zero-ID node accepted")
	}
	if err := s.Attach(99, &Node{ID: 5}); err == nil {
		t.Error("missing parent accepted")
	}
	if err := s.Attach(RootID, &Node{ID: RootID}); err == nil {
		t.Error("duplicate ID accepted")
	}
	withKids := &Node{ID: 7, Children: []*Node{{ID: 8}}}
	if err := s.Attach(RootID, withKids); err == nil {
		t.Error("node with children accepted")
	}
}

func TestAllocIDAfterExplicitAttach(t *testing.T) {
	s := New()
	if err := s.Attach(RootID, &Node{ID: 50, Transform: mathx.Identity()}); err != nil {
		t.Fatal(err)
	}
	if id := s.AllocID(); id <= 50 {
		t.Errorf("AllocID after explicit ID 50: %d", id)
	}
}

func TestRemoveSubtree(t *testing.T) {
	s, gID, mID, aID := buildTestScene(t)
	if err := s.Remove(gID); err != nil {
		t.Fatal(err)
	}
	if s.Node(gID) != nil || s.Node(mID) != nil {
		t.Error("subtree still indexed")
	}
	if s.Node(aID) == nil {
		t.Error("sibling removed")
	}
	if s.NodeCount() != 2 {
		t.Errorf("count after removal: %d", s.NodeCount())
	}
	if err := s.Remove(RootID); err == nil {
		t.Error("root removal accepted")
	}
	if err := s.Remove(gID); err == nil {
		t.Error("double removal accepted")
	}
}

func TestWorldTransform(t *testing.T) {
	s, gID, mID, _ := buildTestScene(t)
	if err := s.SetTransform(mID, mathx.Translate(mathx.V3(0, 3, 0))); err != nil {
		t.Fatal(err)
	}
	w, err := s.WorldTransform(mID)
	if err != nil {
		t.Fatal(err)
	}
	p := w.TransformPoint(mathx.V3(0, 0, 0))
	if !p.ApproxEq(mathx.V3(5, 3, 0)) {
		t.Errorf("world position: %v", p)
	}
	if _, err := s.WorldTransform(999); err == nil {
		t.Error("unknown node accepted")
	}
	_ = gID
}

func TestWalkVisitsAllWithPruning(t *testing.T) {
	s, gID, mID, aID := buildTestScene(t)
	var seen []NodeID
	s.Walk(func(n *Node, _ mathx.Mat4) bool {
		seen = append(seen, n.ID)
		return true
	})
	if len(seen) != 4 {
		t.Errorf("walk visited %d nodes", len(seen))
	}
	// Prune the group subtree.
	seen = nil
	s.Walk(func(n *Node, _ mathx.Mat4) bool {
		seen = append(seen, n.ID)
		return n.ID != gID
	})
	for _, id := range seen {
		if id == mID {
			t.Error("pruned child visited")
		}
	}
	_ = aID
}

func TestCloneIndependence(t *testing.T) {
	s, _, mID, _ := buildTestScene(t)
	s.Version = 7
	c := s.Clone()
	if c.Version != 7 || c.NodeCount() != s.NodeCount() {
		t.Fatalf("clone state: v=%d n=%d", c.Version, c.NodeCount())
	}
	// Mutating the clone leaves the original alone.
	if err := c.Remove(mID); err != nil {
		t.Fatal(err)
	}
	if s.Node(mID) == nil {
		t.Error("clone removal affected original")
	}
	// Clone can continue allocating IDs without collision.
	id := c.AllocID()
	if s.Node(id) != nil {
		t.Error("clone AllocID collides")
	}
}

func TestSubtreeCostAndWork(t *testing.T) {
	s, gID, _, _ := buildTestScene(t)
	total := s.TotalCost()
	if total.Triangles == 0 || total.Bytes == 0 {
		t.Fatalf("total cost empty: %+v", total)
	}
	g, err := s.SubtreeCost(gID)
	if err != nil {
		t.Fatal(err)
	}
	if g.Triangles != total.Triangles-avatarTriangles {
		t.Errorf("group cost %d, total %d", g.Triangles, total.Triangles)
	}
	if total.Work() <= 0 {
		t.Error("work should be positive")
	}
	if _, err := s.SubtreeCost(999); err == nil {
		t.Error("unknown node accepted")
	}
	if (Cost{}).IsZero() != true || total.IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestSceneBounds(t *testing.T) {
	s, _, _, _ := buildTestScene(t)
	b := s.Bounds()
	if b.IsEmpty() {
		t.Fatal("bounds empty")
	}
	// Mesh sphere radius 1 translated +5x: bounds reach x=6.
	if b.Max.X < 5.9 {
		t.Errorf("bounds ignore world transform: %+v", b)
	}
}

func TestPayloadIDs(t *testing.T) {
	s, _, mID, aID := buildTestScene(t)
	ids := s.PayloadIDs()
	if len(ids) != 2 {
		t.Fatalf("payload ids: %v", ids)
	}
	if ids[0] != mID && ids[1] != mID {
		t.Errorf("mesh id missing from %v", ids)
	}
	if ids[0] != aID && ids[1] != aID {
		t.Errorf("avatar id missing from %v", ids)
	}
}

func TestExtractSubset(t *testing.T) {
	s, gID, mID, aID := buildTestScene(t)
	sub, err := s.ExtractSubset([]NodeID{mID})
	if err != nil {
		t.Fatal(err)
	}
	// Subset has root, group (stripped), mesh — not the avatar.
	if sub.Node(aID) != nil {
		t.Error("unrequested sibling present")
	}
	g := sub.Node(gID)
	if g == nil {
		t.Fatal("ancestor missing")
	}
	if g.Payload != nil {
		t.Error("ancestor payload not stripped")
	}
	m := sub.Node(mID)
	if m == nil || m.Payload == nil {
		t.Fatal("requested node or payload missing")
	}
	// World transform preserved through retained ancestors.
	w1, _ := s.WorldTransform(mID)
	w2, err := sub.WorldTransform(mID)
	if err != nil {
		t.Fatal(err)
	}
	if !w1.ApproxEq(w2, 1e-12) {
		t.Error("subset changes world transform")
	}
	if _, err := s.ExtractSubset([]NodeID{999}); err == nil {
		t.Error("unknown subset node accepted")
	}
}

func TestExtractSubsetOfRootPayload(t *testing.T) {
	s := New()
	s.Root.Payload = meshPayload(50)
	sub, err := s.ExtractSubset([]NodeID{RootID})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Root.Payload == nil {
		t.Error("root payload lost")
	}
}

func TestApplyOpsAndVersioning(t *testing.T) {
	s := New()
	v0 := s.Version
	id := s.AllocID()
	err := s.ApplyOp(&AddNodeOp{Parent: RootID, ID: id, Name: "box",
		Transform: mathx.Identity(), Payload: meshPayload(60)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Version != v0+1 {
		t.Errorf("version after add: %d", s.Version)
	}
	if s.Node(id) == nil {
		t.Fatal("node not added")
	}
	if err := s.ApplyOp(&SetTransformOp{ID: id, Transform: mathx.Translate(mathx.V3(1, 2, 3))}); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyOp(&SetNameOp{ID: id, Name: "renamed"}); err != nil {
		t.Fatal(err)
	}
	if s.Node(id).Name != "renamed" {
		t.Error("rename lost")
	}
	if err := s.ApplyOp(&RemoveNodeOp{ID: id}); err != nil {
		t.Fatal(err)
	}
	if s.Version != v0+4 {
		t.Errorf("version after 4 ops: %d", s.Version)
	}
	// Failed ops do not bump the version.
	if err := s.ApplyOp(&RemoveNodeOp{ID: id}); err == nil {
		t.Fatal("double remove accepted")
	}
	if s.Version != v0+4 {
		t.Error("failed op bumped version")
	}
	if err := s.ApplyOp(nil); err == nil {
		t.Error("nil op accepted")
	}
}

func TestOpReplayConvergence(t *testing.T) {
	// Apply the same op stream to two replicas; they must converge.
	a := New()
	b := New()
	var ops []Op
	id1 := a.AllocID()
	ops = append(ops, &AddNodeOp{Parent: RootID, ID: id1, Name: "n1", Transform: mathx.Identity()})
	id2 := a.AllocID()
	ops = append(ops, &AddNodeOp{Parent: id1, ID: id2, Name: "n2",
		Transform: mathx.Translate(mathx.V3(1, 0, 0)), Payload: meshPayload(40)})
	ops = append(ops, &SetTransformOp{ID: id1, Transform: mathx.RotateY(0.5)})
	ops = append(ops, &SetNameOp{ID: id2, Name: "renamed"})

	for _, op := range ops {
		if err := a.ApplyOp(op); err != nil {
			t.Fatal(err)
		}
		if err := b.ApplyOp(op); err != nil {
			t.Fatal(err)
		}
	}
	if a.Version != b.Version || a.NodeCount() != b.NodeCount() {
		t.Fatalf("replicas diverged: v=%d/%d n=%d/%d", a.Version, b.Version, a.NodeCount(), b.NodeCount())
	}
	wa, _ := a.WorldTransform(id2)
	wb, _ := b.WorldTransform(id2)
	if !wa.ApproxEq(wb, 1e-12) {
		t.Error("replica transforms diverged")
	}
	if a.Node(id2).Name != b.Node(id2).Name {
		t.Error("replica names diverged")
	}
}

// An op hands its payload over: the node holds the op's payload itself,
// not a copy, whichever op installed it.
func TestAppliedOpAdoptsPayload(t *testing.T) {
	s := New()
	pl := meshPayload(40)
	id := s.AllocID()
	if err := s.ApplyOp(&AddNodeOp{Parent: RootID, ID: id, Transform: mathx.Identity(), Payload: pl}); err != nil {
		t.Fatal(err)
	}
	if got := s.Node(id).Payload; got != Payload(pl) {
		t.Errorf("AddNodeOp installed %p, want the op's payload %p", got, pl)
	}
	next := &PointsPayload{Cloud: &geom.PointCloud{Points: make([]mathx.Vec3, 3)}}
	if err := s.ApplyOp(&SetPayloadOp{ID: id, Payload: next}); err != nil {
		t.Fatal(err)
	}
	if got := s.Node(id).Payload; got != Payload(next) {
		t.Errorf("SetPayloadOp installed %p, want the op's payload %p", got, next)
	}
}

// Ops replace payloads and never edit them, so a clone taken before a
// SetPayloadOp keeps the payload it was taken with, and the original
// moves to the new one.
func TestCloneKeepsPayloadAcrossSetPayload(t *testing.T) {
	s, _, mID, _ := buildTestScene(t)
	before := s.Node(mID).Payload.(*MeshPayload)
	tris := before.Mesh.TriangleCount()
	c := s.Clone()
	replacement := meshPayload(400)
	if err := s.ApplyOp(&SetPayloadOp{ID: mID, Payload: replacement}); err != nil {
		t.Fatal(err)
	}
	kept := c.Node(mID).Payload.(*MeshPayload)
	if kept == replacement || kept.Mesh.TriangleCount() != tris {
		t.Errorf("clone's payload has %d triangles after the original's SetPayloadOp, want %d", kept.Mesh.TriangleCount(), tris)
	}
	if s.Node(mID).Payload != Payload(replacement) {
		t.Error("the original did not adopt the replacement")
	}
	if before.Mesh.TriangleCount() != tris {
		t.Error("the replaced payload was edited")
	}
}

func TestPayloadCosts(t *testing.T) {
	mp := meshPayload(100)
	if mp.Cost().Triangles != mp.Mesh.TriangleCount() {
		t.Error("mesh cost triangles")
	}
	pc := &PointsPayload{Cloud: &geom.PointCloud{Points: make([]mathx.Vec3, 50)}}
	if pc.Cost().Points != 50 {
		t.Error("points cost")
	}
	vg := &VoxelsPayload{Grid: geom.NewVoxelGrid(4, 4, 4, mathx.Vec3{}, 1)}
	if vg.Cost().Voxels != 64 || vg.Cost().Bytes != 256 {
		t.Errorf("voxel cost: %+v", vg.Cost())
	}
	av := &AvatarPayload{User: "u"}
	if av.Cost().Triangles == 0 {
		t.Error("avatar cost zero")
	}
	// Work is monotone in each primitive count.
	if (Cost{Triangles: 10}).Work() <= (Cost{Triangles: 5}).Work() {
		t.Error("work not monotone")
	}
	// Kinds and clone coverage.
	for _, p := range []Payload{mp, pc, vg, av} {
		c := p.ClonePayload()
		if c.Kind() != p.Kind() {
			t.Errorf("clone kind mismatch: %v", p.Kind())
		}
		if p.BoundsLocal().IsEmpty() && p.Kind() != KindPoints {
			// points payload above has zero-valued points: bounds not empty.
			t.Errorf("%v bounds empty", p.Kind())
		}
	}
}

func TestKindStrings(t *testing.T) {
	names := map[Kind]string{
		KindGroup: "group", KindMesh: "mesh", KindPoints: "points",
		KindVoxels: "voxels", KindAvatar: "avatar",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("kind %d: %q", k, k.String())
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind name empty")
	}
}

func TestSupportedInteractions(t *testing.T) {
	s, gID, mID, aID := buildTestScene(t)
	if got := SupportedInteractions(nil); got != nil {
		t.Error("nil node has interactions")
	}
	root := SupportedInteractions(s.Node(RootID))
	if len(root) != 1 || root[0] != InteractRename {
		t.Errorf("root interactions: %v", root)
	}
	ava := SupportedInteractions(s.Node(aID))
	for _, a := range ava {
		if a == InteractDelete {
			t.Error("avatar deletable")
		}
	}
	mesh := SupportedInteractions(s.Node(mID))
	found := map[Interaction]bool{}
	for _, a := range mesh {
		found[a] = true
	}
	if !found[InteractMove] || !found[InteractDelete] || !found[InteractOrbit] {
		t.Errorf("mesh interactions: %v", mesh)
	}
	_ = gID
}

func TestInteractionOp(t *testing.T) {
	s, _, mID, aID := buildTestScene(t)
	op, err := InteractionOp(s, mID, InteractMove, mathx.Translate(mathx.V3(1, 1, 1)), "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyOp(op); err != nil {
		t.Fatal(err)
	}
	w, _ := s.WorldTransform(mID)
	p := w.TransformPoint(mathx.Vec3{})
	if math.Abs(p.Y-1) > 1e-9 {
		t.Errorf("move not applied: %v", p)
	}
	// Deleting an avatar via interaction is refused.
	if _, err := InteractionOp(s, aID, InteractDelete, mathx.Identity(), ""); err == nil {
		t.Error("avatar delete allowed")
	}
	if _, err := InteractionOp(s, 999, InteractMove, mathx.Identity(), ""); err == nil {
		t.Error("unknown node allowed")
	}
	// Rename through interaction.
	op, err = InteractionOp(s, mID, InteractRename, mathx.Identity(), "newname")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyOp(op); err != nil {
		t.Fatal(err)
	}
	if s.Node(mID).Name != "newname" {
		t.Error("rename interaction lost")
	}
	// Orbit has no op form.
	if _, err := InteractionOp(s, mID, InteractOrbit, mathx.Identity(), ""); err == nil {
		t.Error("orbit produced an op")
	}
}

func TestSetPayloadOp(t *testing.T) {
	s, _, mID, aID := buildTestScene(t)
	orig := s.Node(mID).Payload.(*MeshPayload).Mesh.TriangleCount()

	// Replace the mesh payload with a point cloud.
	pc := &PointsPayload{Cloud: &geom.PointCloud{Points: make([]mathx.Vec3, 7)}}
	if err := s.ApplyOp(&SetPayloadOp{ID: mID, Payload: pc}); err != nil {
		t.Fatal(err)
	}
	if s.Node(mID).Kind() != KindPoints {
		t.Errorf("payload kind after set: %v", s.Node(mID).Kind())
	}
	if s.Node(mID).Payload.Cost().Points != 7 {
		t.Errorf("set payload has %d points, want 7", s.Node(mID).Payload.Cost().Points)
	}
	// Clearing the payload turns the node into a group.
	if err := s.ApplyOp(&SetPayloadOp{ID: mID}); err != nil {
		t.Fatal(err)
	}
	if s.Node(mID).Kind() != KindGroup {
		t.Errorf("cleared payload kind: %v", s.Node(mID).Kind())
	}
	// Unknown node refused, no version bump.
	v := s.Version
	if err := s.ApplyOp(&SetPayloadOp{ID: 999}); err == nil {
		t.Error("unknown node accepted")
	}
	if s.Version != v {
		t.Error("failed op bumped version")
	}
	_ = orig
	_ = aID
}

// A payload in a scene is replaced, never edited, so its bounds are
// worked out on the first call and not again — the render service asks
// for them on every frame's frustum cull. The test edits a held mesh in
// place, which nothing in the system does, to see that the second call
// did not walk it; a payload SetPayloadOp installs is a new payload and
// reports its own mesh's bounds.
func TestMeshBoundsComputedOncePerPayload(t *testing.T) {
	s, _, mID, _ := buildTestScene(t)
	held := s.Node(mID).Payload.(*MeshPayload)
	first := held.BoundsLocal()
	if first != held.Mesh.Bounds() || first.IsEmpty() {
		t.Fatalf("BoundsLocal = %+v, mesh bounds %+v", first, held.Mesh.Bounds())
	}
	held.Mesh.Positions[0] = mathx.V3(100, 100, 100)
	if again := held.BoundsLocal(); again != first {
		t.Errorf("second BoundsLocal walked the mesh again: %+v, first %+v", again, first)
	}

	bigger := genmodel.Sphere(mathx.V3(0, 3, 0), 4, 8, 6)
	if err := s.ApplyOp(&SetPayloadOp{ID: mID, Payload: &MeshPayload{Mesh: bigger}}); err != nil {
		t.Fatal(err)
	}
	installed := s.Node(mID).Payload
	if installed == Payload(held) {
		t.Fatal("SetPayloadOp kept the old payload")
	}
	if got := installed.BoundsLocal(); got != bigger.Bounds() {
		t.Errorf("replaced payload reports bounds %+v, its mesh has %+v", got, bigger.Bounds())
	}
	// A clone taken after the bounds were computed computes its own.
	if got := installed.ClonePayload().BoundsLocal(); got != bigger.Bounds() {
		t.Errorf("cloned payload reports bounds %+v, want %+v", got, bigger.Bounds())
	}
}
