package objply

import (
	"bytes"
	"math"
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

func TestPLYBinaryRoundTrip(t *testing.T) {
	m := testMesh(t)
	m.SetUniformColor(mathx.V3(1, 0, 0))
	var buf bytes.Buffer
	if err := WritePLY(&buf, m); err != nil {
		t.Fatalf("WritePLY: %v", err)
	}
	back, err := ReadPLY(&buf)
	if err != nil {
		t.Fatalf("ReadPLY: %v", err)
	}
	meshesApproxEqual(t, m, back, 1e-4)
	if back.Normals == nil || back.Colors == nil {
		t.Error("attributes lost in PLY round trip")
	}
	if math.Abs(back.Colors[0].X-1) > 0.01 {
		t.Errorf("red channel: %v", back.Colors[0])
	}
}

func TestPLYAscii(t *testing.T) {
	src := `ply
format ascii 1.0
comment a triangle
element vertex 3
property float x
property float y
property float z
element face 1
property list uchar int vertex_indices
end_header
0 0 0
1 0 0
0 1 0
3 0 1 2
`
	m, err := ReadPLY(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadPLY ascii: %v", err)
	}
	if m.VertexCount() != 3 || m.TriangleCount() != 1 {
		t.Errorf("counts: %d verts %d tris", m.VertexCount(), m.TriangleCount())
	}
	if !m.Positions[1].ApproxEq(mathx.V3(1, 0, 0)) {
		t.Errorf("vertex 1: %v", m.Positions[1])
	}
}

func TestPLYAsciiQuadFace(t *testing.T) {
	src := `ply
format ascii 1.0
element vertex 4
property float x
property float y
property float z
element face 1
property list uchar int vertex_indices
end_header
0 0 0
1 0 0
1 1 0
0 1 0
4 0 1 2 3
`
	m, err := ReadPLY(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.TriangleCount() != 2 {
		t.Errorf("quad face gave %d triangles", m.TriangleCount())
	}
}

func TestPLYHeaderErrors(t *testing.T) {
	cases := []string{
		"not a ply\n",
		"ply\nformat binary_big_endian 1.0\nend_header\n",
		"ply\nproperty float x\nend_header\n",    // property before element
		"ply\nelement vertex nope\nend_header\n", // bad count
		"ply\nformat ascii 1.0\nwhatisthis\nend_header\n",
		"ply\nend_header\n", // missing format
	}
	for i, src := range cases {
		if _, err := ReadPLY(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: bad PLY accepted", i)
		}
	}
}

func TestPLYTruncatedBody(t *testing.T) {
	m := testMesh(t)
	var buf bytes.Buffer
	if err := WritePLY(&buf, m); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := ReadPLY(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated PLY accepted")
	}
}

// The paper's pipeline: PLY in, OBJ out, import. Check the full conversion
// chain preserves geometry.
func TestPLYToOBJConversionChain(t *testing.T) {
	m := testMesh(t)
	var ply bytes.Buffer
	if err := WritePLY(&ply, m); err != nil {
		t.Fatal(err)
	}
	fromPLY, err := ReadPLY(&ply)
	if err != nil {
		t.Fatal(err)
	}
	var obj bytes.Buffer
	if err := WriteOBJ(&obj, fromPLY); err != nil {
		t.Fatal(err)
	}
	final, err := ReadOBJ(&obj)
	if err != nil {
		t.Fatal(err)
	}
	meshesApproxEqual(t, m, final, 1e-3)
}
