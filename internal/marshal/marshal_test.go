package marshal

import (
	"bytes"
	"testing"

	"repro/internal/geom"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/scene"
)

// richScene builds a scene exercising every payload kind.
func richScene(t testing.TB) *scene.Scene {
	t.Helper()
	s := scene.New()
	mesh := genmodel.Galleon(800)
	mesh.SetUniformColor(mathx.V3(0.6, 0.4, 0.2))
	add := func(parent scene.NodeID, name string, tr mathx.Mat4, p scene.Payload) scene.NodeID {
		id := s.AllocID()
		if err := s.ApplyOp(&scene.AddNodeOp{Parent: parent, ID: id, Name: name, Transform: tr, Payload: p}); err != nil {
			t.Fatal(err)
		}
		return id
	}
	g := add(scene.RootID, "group", mathx.Translate(mathx.V3(1, 2, 3)), nil)
	add(g, "ship", mathx.RotateY(0.3), &scene.MeshPayload{Mesh: mesh})
	add(g, "cloud", mathx.Identity(), &scene.PointsPayload{Cloud: &geom.PointCloud{
		Points: []mathx.Vec3{mathx.V3(1, 2, 3), mathx.V3(4, 5, 6)},
		Colors: []mathx.Vec3{mathx.V3(1, 0, 0), mathx.V3(0, 1, 0)},
	}})
	vg := geom.NewVoxelGrid(3, 3, 3, mathx.V3(-1, -1, -1), 0.5)
	vg.Set(1, 1, 1, 2.5)
	add(scene.RootID, "volume", mathx.Identity(), &scene.VoxelsPayload{Grid: vg, Iso: 0.5})
	add(scene.RootID, "ava", mathx.Translate(mathx.V3(0, 0, 9)),
		&scene.AvatarPayload{User: "desktop", Color: mathx.V3(1, 1, 0)})
	return s
}

func scenesEqual(t *testing.T, a, b *scene.Scene) {
	t.Helper()
	if a.Version != b.Version {
		t.Fatalf("version %d vs %d", a.Version, b.Version)
	}
	if a.NodeCount() != b.NodeCount() {
		t.Fatalf("node count %d vs %d", a.NodeCount(), b.NodeCount())
	}
	a.Walk(func(n *scene.Node, world mathx.Mat4) bool {
		bn := b.Node(n.ID)
		if bn == nil {
			t.Fatalf("node %d missing", n.ID)
		}
		if bn.Name != n.Name {
			t.Fatalf("node %d name %q vs %q", n.ID, n.Name, bn.Name)
		}
		if !bn.Transform.ApproxEq(n.Transform, 0) {
			t.Fatalf("node %d transform differs", n.ID)
		}
		if (n.Payload == nil) != (bn.Payload == nil) {
			t.Fatalf("node %d payload presence differs", n.ID)
		}
		if n.Payload != nil {
			if n.Payload.Kind() != bn.Payload.Kind() {
				t.Fatalf("node %d payload kind differs", n.ID)
			}
			ca, cb := n.Payload.Cost(), bn.Payload.Cost()
			if ca != cb {
				t.Fatalf("node %d cost %+v vs %+v", n.ID, ca, cb)
			}
		}
		return true
	})
}

func TestSceneRoundTrip(t *testing.T) {
	s := richScene(t)
	var buf bytes.Buffer
	if err := WriteScene(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := ReadScene(&buf)
	if err != nil {
		t.Fatal(err)
	}
	scenesEqual(t, s, back)

	// The decoded replica can keep applying ops (ID allocator restored).
	id := back.AllocID()
	if back.Node(id) != nil {
		t.Error("restored allocator reused an ID")
	}
	// Mesh contents survive exactly.
	var origMesh, backMesh *geom.Mesh
	s.Walk(func(n *scene.Node, _ mathx.Mat4) bool {
		if mp, ok := n.Payload.(*scene.MeshPayload); ok {
			origMesh = mp.Mesh
		}
		return true
	})
	back.Walk(func(n *scene.Node, _ mathx.Mat4) bool {
		if mp, ok := n.Payload.(*scene.MeshPayload); ok {
			backMesh = mp.Mesh
		}
		return true
	})
	if len(origMesh.Positions) != len(backMesh.Positions) {
		t.Fatal("mesh vertex count differs")
	}
	for i := range origMesh.Positions {
		if origMesh.Positions[i] != backMesh.Positions[i] {
			t.Fatal("mesh position differs")
		}
	}
}

func TestSceneDecodeErrors(t *testing.T) {
	s := richScene(t)
	var buf bytes.Buffer
	if err := WriteScene(&buf, s); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	if _, err := ReadScene(bytes.NewReader(full[:10])); err == nil {
		t.Error("truncated scene accepted")
	}
	garbage := append([]byte{9, 9, 9, 9}, full[4:]...)
	if _, err := ReadScene(bytes.NewReader(garbage)); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadScene(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}

	// Payloads that decode but are not self-consistent are refused the
	// way a mesh with out-of-range indices is.
	for name, p := range map[string]scene.Payload{
		"points with one colour for two points": &scene.PointsPayload{Cloud: &geom.PointCloud{
			Points: []mathx.Vec3{{}, {X: 1}}, Colors: []mathx.Vec3{{}}}},
		"voxels with zero spacing": &scene.VoxelsPayload{Grid: &geom.VoxelGrid{NX: 1, NY: 1, NZ: 1, Data: []float32{0}}},
	} {
		buf.Reset()
		if err := WriteOp(&buf, &scene.SetPayloadOp{ID: 2, Payload: p}); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadOp(&buf); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestOpRoundTrips(t *testing.T) {
	mesh := genmodel.Sphere(mathx.Vec3{}, 1, 6, 4)
	ops := []scene.Op{
		&scene.AddNodeOp{Parent: 1, ID: 5, Name: "n", Transform: mathx.RotateX(1),
			Payload: &scene.MeshPayload{Mesh: mesh}},
		&scene.AddNodeOp{Parent: 1, ID: 6, Name: "g", Transform: mathx.Identity()},
		&scene.RemoveNodeOp{ID: 5},
		&scene.SetTransformOp{ID: 6, Transform: mathx.Translate(mathx.V3(1, 2, 3))},
		&scene.SetNameOp{ID: 6, Name: "renamed"},
	}
	for i, op := range ops {
		var buf bytes.Buffer
		if err := WriteOp(&buf, op); err != nil {
			t.Fatalf("op %d write: %v", i, err)
		}
		back, err := ReadOp(&buf)
		if err != nil {
			t.Fatalf("op %d read: %v", i, err)
		}
		if back.Kind() != op.Kind() || back.Touches() != op.Touches() {
			t.Fatalf("op %d: kind/touch mismatch", i)
		}
	}
	// Round-tripped ops replay identically.
	a, b := scene.New(), scene.New()
	for _, op := range ops {
		var buf bytes.Buffer
		if err := WriteOp(&buf, op); err != nil {
			t.Fatal(err)
		}
		back, err := ReadOp(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.ApplyOp(op); err != nil {
			t.Fatal(err)
		}
		if err := b.ApplyOp(back); err != nil {
			t.Fatal(err)
		}
	}
	if a.Version != b.Version || a.NodeCount() != b.NodeCount() {
		t.Error("op replay diverged")
	}
}

func TestOpDecodeErrors(t *testing.T) {
	if _, err := ReadOp(bytes.NewReader([]byte{99})); err == nil {
		t.Error("unknown op kind accepted")
	}
	if _, err := ReadOp(bytes.NewReader(nil)); err == nil {
		t.Error("empty op accepted")
	}
	var buf bytes.Buffer
	if err := WriteOp(&buf, &scene.SetNameOp{ID: 3, Name: "abc"}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadOp(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated op accepted")
	}
}

func TestReflectWriteMatchesDirect(t *testing.T) {
	s := richScene(t)
	var direct, refl bytes.Buffer
	if err := WriteScene(&direct, s); err != nil {
		t.Fatal(err)
	}
	if err := ReflectWriteScene(&refl, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), refl.Bytes()) {
		t.Fatal("introspection encoder produced a different stream")
	}
	back, err := ReflectReadScene(&refl)
	if err != nil {
		t.Fatal(err)
	}
	scenesEqual(t, s, back)
}

func TestFrameRoundTrip(t *testing.T) {
	fb := raster.NewFramebuffer(16, 12)
	fb.Plot(3, 4, 0.25, 10, 20, 30)
	for _, withDepth := range []bool{true, false} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fb, withDepth); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.W != 16 || back.H != 12 {
			t.Fatalf("size %dx%d", back.W, back.H)
		}
		r, g, b := back.At(3, 4)
		if r != 10 || g != 20 || b != 30 {
			t.Errorf("color lost: %d %d %d", r, g, b)
		}
		if withDepth {
			if back.DepthAt(3, 4) != 0.25 {
				t.Errorf("depth lost: %v", back.DepthAt(3, 4))
			}
		} else if back.CoveredPixels() != 0 {
			t.Error("depth plane not cleared for colorless frame")
		}
	}
}

func TestFrameDecodeErrors(t *testing.T) {
	fb := raster.NewFramebuffer(4, 4)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, fb, true); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadFrame(bytes.NewReader(data[:6])); err == nil {
		t.Error("truncated frame accepted")
	}
	if _, err := ReadFrame(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Error("truncated depth accepted")
	}
}

func TestPixelMarshalEquivalence(t *testing.T) {
	fb := raster.NewFramebuffer(20, 15)
	for y := 0; y < 15; y++ {
		for x := 0; x < 20; x++ {
			fb.Set(x, y, uint8(x), uint8(y), uint8(x*y))
		}
	}
	direct := EncodeFrameDirect(fb)
	perPixel := EncodeFramePerPixel(fb)
	if !bytes.Equal(direct, perPixel) {
		t.Fatal("per-pixel and direct encodings differ")
	}
	back, err := DecodeFrameColor(direct)
	if err != nil {
		t.Fatal(err)
	}
	r, g, b := back.At(5, 7)
	if r != 5 || g != 7 || b != 35 {
		t.Errorf("decoded pixel: %d %d %d", r, g, b)
	}
}

func TestDecodeFrameColorErrors(t *testing.T) {
	if _, err := DecodeFrameColor([]byte{1, 2}); err == nil {
		t.Error("short frame accepted")
	}
	fb := raster.NewFramebuffer(4, 4)
	data := EncodeFrameDirect(fb)
	if _, err := DecodeFrameColor(data[:len(data)-1]); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestSetPayloadOpRoundTrip(t *testing.T) {
	mesh := genmodel.Sphere(mathx.Vec3{}, 1, 6, 4)
	ops := []scene.Op{
		&scene.SetPayloadOp{ID: 4, Payload: &scene.MeshPayload{Mesh: mesh}},
		&scene.SetPayloadOp{ID: 4}, // clears
	}
	for i, op := range ops {
		var buf bytes.Buffer
		if err := WriteOp(&buf, op); err != nil {
			t.Fatalf("op %d write: %v", i, err)
		}
		back, err := ReadOp(&buf)
		if err != nil {
			t.Fatalf("op %d read: %v", i, err)
		}
		sp, ok := back.(*scene.SetPayloadOp)
		if !ok || sp.ID != 4 {
			t.Fatalf("op %d decoded wrong: %T", i, back)
		}
		orig := op.(*scene.SetPayloadOp)
		if (orig.Payload == nil) != (sp.Payload == nil) {
			t.Fatalf("op %d payload presence lost", i)
		}
		if orig.Payload != nil && sp.Payload.Cost() != orig.Payload.Cost() {
			t.Fatalf("op %d payload cost differs", i)
		}
	}
}
