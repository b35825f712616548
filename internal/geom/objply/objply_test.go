package objply

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
)

func testMesh(t *testing.T) *geom.Mesh {
	t.Helper()
	m := genmodel.Sphere(mathx.Vec3{}, 1, 12, 8)
	m.ComputeNormals()
	if m.TriangleCount() == 0 {
		t.Fatal("test mesh empty")
	}
	return m
}

func meshesApproxEqual(t *testing.T, a, b *geom.Mesh, tol float64) {
	t.Helper()
	if a.VertexCount() != b.VertexCount() {
		t.Fatalf("vertex count %d vs %d", a.VertexCount(), b.VertexCount())
	}
	if a.TriangleCount() != b.TriangleCount() {
		t.Fatalf("triangle count %d vs %d", a.TriangleCount(), b.TriangleCount())
	}
	for i := range a.Positions {
		if a.Positions[i].Sub(b.Positions[i]).Len() > tol {
			t.Fatalf("vertex %d: %v vs %v", i, a.Positions[i], b.Positions[i])
		}
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			t.Fatalf("index %d: %d vs %d", i, a.Indices[i], b.Indices[i])
		}
	}
}

func TestOBJRoundTrip(t *testing.T) {
	m := testMesh(t)
	var buf bytes.Buffer
	if err := WriteOBJ(&buf, m); err != nil {
		t.Fatalf("WriteOBJ: %v", err)
	}
	back, err := ReadOBJ(&buf)
	if err != nil {
		t.Fatalf("ReadOBJ: %v", err)
	}
	meshesApproxEqual(t, m, back, 1e-4)
	if back.Normals == nil {
		t.Error("normals lost in OBJ round trip")
	}
}

func TestOBJColorsRoundTrip(t *testing.T) {
	m := testMesh(t)
	m.Normals = nil
	m.SetUniformColor(mathx.V3(0.25, 0.5, 0.75))
	var buf bytes.Buffer
	if err := WriteOBJ(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := ReadOBJ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Colors == nil {
		t.Fatal("colors lost")
	}
	if back.Colors[0].Sub(mathx.V3(0.25, 0.5, 0.75)).Len() > 1e-9 {
		t.Errorf("color: %v", back.Colors[0])
	}
}

func TestOBJPolygonTriangulation(t *testing.T) {
	src := `
# quad face
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
f 1 2 3 4
`
	m, err := ReadOBJ(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadOBJ: %v", err)
	}
	if m.TriangleCount() != 2 {
		t.Errorf("quad triangulated to %d triangles", m.TriangleCount())
	}
}

func TestOBJNegativeIndices(t *testing.T) {
	src := "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n"
	m, err := ReadOBJ(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadOBJ: %v", err)
	}
	if m.TriangleCount() != 1 || m.Indices[0] != 0 || m.Indices[2] != 2 {
		t.Errorf("negative indices: %v", m.Indices)
	}
}

func TestOBJErrors(t *testing.T) {
	cases := []string{
		"v 1 2\nf 1 1 1\n",      // short vertex
		"v 0 0 0\nf 1 2 3\n",    // face index out of range
		"v 0 0 0\nf 1 1\n",      // face too short
		"v a b c\n",             // unparsable float
		"v 0 0 0\nvn 1 0\n",     // short normal
		"v 0 0 0\nf 1//9 1 1\n", // normal ref out of range
		"v 0 0 0\nf x 1 1\n",    // junk index
	}
	for i, src := range cases {
		if _, err := ReadOBJ(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: bad OBJ accepted", i)
		}
	}
}
