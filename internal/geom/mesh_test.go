package geom

import (
	"math"
	"testing"

	"repro/internal/mathx"
)

// quadMesh returns a unit square in the XY plane made of two triangles.
func quadMesh() *Mesh {
	return &Mesh{
		Positions: []mathx.Vec3{
			mathx.V3(0, 0, 0), mathx.V3(1, 0, 0), mathx.V3(1, 1, 0), mathx.V3(0, 1, 0),
		},
		Indices: []uint32{0, 1, 2, 0, 2, 3},
	}
}

func TestMeshCounts(t *testing.T) {
	m := quadMesh()
	if m.TriangleCount() != 2 {
		t.Errorf("TriangleCount = %d", m.TriangleCount())
	}
	if m.VertexCount() != 4 {
		t.Errorf("VertexCount = %d", m.VertexCount())
	}
	a, b, c := m.Triangle(1)
	if a != (mathx.Vec3{X: 0, Y: 0, Z: 0}) || b != (mathx.Vec3{X: 1, Y: 1, Z: 0}) || c != (mathx.Vec3{X: 0, Y: 1, Z: 0}) {
		t.Errorf("Triangle(1) = %v %v %v", a, b, c)
	}
}

func TestMeshValidate(t *testing.T) {
	m := quadMesh()
	if err := m.Validate(); err != nil {
		t.Fatalf("valid mesh rejected: %v", err)
	}
	bad := quadMesh()
	bad.Indices = append(bad.Indices, 0, 1) // not multiple of 3
	if err := bad.Validate(); err == nil {
		t.Error("truncated indices accepted")
	}
	bad2 := quadMesh()
	bad2.Indices[0] = 99
	if err := bad2.Validate(); err == nil {
		t.Error("out-of-range index accepted")
	}
	bad3 := quadMesh()
	bad3.Normals = make([]mathx.Vec3, 2)
	if err := bad3.Validate(); err == nil {
		t.Error("mismatched normals accepted")
	}
	bad4 := quadMesh()
	bad4.Colors = make([]mathx.Vec3, 1)
	if err := bad4.Validate(); err == nil {
		t.Error("mismatched colors accepted")
	}
}

func TestMeshBounds(t *testing.T) {
	m := quadMesh()
	b := m.Bounds()
	if b.Min != (mathx.Vec3{X: 0, Y: 0, Z: 0}) || b.Max != (mathx.Vec3{X: 1, Y: 1, Z: 0}) {
		t.Errorf("bounds: %+v", b)
	}
	empty := &Mesh{}
	if !empty.Bounds().IsEmpty() {
		t.Error("empty mesh bounds not empty")
	}
}

func TestMeshCloneIndependent(t *testing.T) {
	m := quadMesh()
	m.SetUniformColor(mathx.V3(1, 0, 0))
	m.ComputeNormals()
	c := m.Clone()
	c.Positions[0] = mathx.V3(9, 9, 9)
	c.Colors[0] = mathx.V3(0, 1, 0)
	c.Indices[0] = 3
	if m.Positions[0] == c.Positions[0] || m.Colors[0] == c.Colors[0] || m.Indices[0] == c.Indices[0] {
		t.Error("clone shares storage with original")
	}
}

func TestComputeNormalsFlatQuad(t *testing.T) {
	m := quadMesh()
	m.ComputeNormals()
	want := mathx.V3(0, 0, 1)
	for i, n := range m.Normals {
		if !n.ApproxEq(want) {
			t.Errorf("normal %d = %v, want +Z", i, n)
		}
	}
}

func TestMeshAppend(t *testing.T) {
	a := quadMesh()
	b := quadMesh()
	for i, p := range b.Positions {
		b.Positions[i] = p.Add(mathx.V3(0, 0, 2))
	}
	b.SetUniformColor(mathx.V3(1, 0, 0))
	a.Append(b)
	if a.TriangleCount() != 4 {
		t.Fatalf("appended triangle count: %d", a.TriangleCount())
	}
	if a.VertexCount() != 8 {
		t.Fatalf("appended vertex count: %d", a.VertexCount())
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("appended mesh invalid: %v", err)
	}
	// Colors were only on b; a's half should be zero-filled.
	if a.Colors[0] != (mathx.Vec3{}) {
		t.Errorf("a color not zero-filled: %v", a.Colors[0])
	}
	if a.Colors[4] != (mathx.Vec3{X: 1, Y: 0, Z: 0}) {
		t.Errorf("b color lost: %v", a.Colors[4])
	}
}

// sphereMesh is a unit sphere at the origin, stacks x slices quads of
// latitude and longitude.
func sphereMesh(stacks, slices int) *Mesh {
	m := &Mesh{}
	for i := 0; i <= stacks; i++ {
		theta := math.Pi * float64(i) / float64(stacks)
		for j := 0; j <= slices; j++ {
			phi := 2 * math.Pi * float64(j) / float64(slices)
			m.Positions = append(m.Positions, mathx.V3(math.Sin(theta)*math.Cos(phi), math.Cos(theta), math.Sin(theta)*math.Sin(phi)))
		}
	}
	for i := 0; i < stacks; i++ {
		for j := 0; j < slices; j++ {
			a := uint32(i*(slices+1) + j)
			b, c, d := a+1, a+uint32(slices+1), a+uint32(slices+2)
			m.Indices = append(m.Indices, a, c, b, b, c, d)
		}
	}
	return m
}

func TestSplitSpatiallyPreservesTriangles(t *testing.T) {
	m := sphereMesh(24, 48)
	for _, n := range []int{1, 2, 3, 5} {
		pieces := m.SplitSpatially(n)
		total := 0
		for _, p := range pieces {
			total += p.TriangleCount()
			if err := p.Validate(); err != nil {
				t.Fatalf("split piece invalid: %v", err)
			}
		}
		if total != m.TriangleCount() {
			t.Errorf("split %d: %d triangles, want %d", n, total, m.TriangleCount())
		}
		if len(pieces) > n {
			t.Errorf("split %d produced %d pieces", n, len(pieces))
		}
	}
}

func TestSplitSpatiallySeparates(t *testing.T) {
	m := sphereMesh(24, 48)
	pieces := m.SplitSpatially(2)
	if len(pieces) != 2 {
		t.Fatalf("want 2 pieces, got %d", len(pieces))
	}
	// The two halves should occupy different ranges on the split axis.
	c0 := pieces[0].Bounds().Center()
	c1 := pieces[1].Bounds().Center()
	if c0.Sub(c1).Len() < 0.3 {
		t.Errorf("pieces not spatially separated: centers %v %v", c0, c1)
	}
}

func TestSplitSpatiallyDegenerate(t *testing.T) {
	empty := &Mesh{}
	pieces := empty.SplitSpatially(4)
	if len(pieces) != 1 || pieces[0].TriangleCount() != 0 {
		t.Errorf("empty split: %d pieces", len(pieces))
	}
}
