package geom

import (
	"testing"

	"repro/internal/mathx"
)

func cloudOf(points ...mathx.Vec3) *PointCloud {
	return &PointCloud{Points: points}
}

func TestPointCloudBasics(t *testing.T) {
	pc := cloudOf(mathx.V3(0, 0, 0), mathx.V3(1, 2, 3))
	if pc.Count() != 2 {
		t.Errorf("Count = %d", pc.Count())
	}
	if err := pc.Validate(); err != nil {
		t.Fatalf("valid cloud rejected: %v", err)
	}
	pc.Colors = make([]mathx.Vec3, 1)
	if err := pc.Validate(); err == nil {
		t.Error("mismatched colors accepted")
	}
}

func TestPointCloudBoundsTransformClone(t *testing.T) {
	pc := cloudOf(mathx.V3(-1, 0, 0), mathx.V3(1, 2, 3))
	b := pc.Bounds()
	if b.Min != (mathx.Vec3{X: -1, Y: 0, Z: 0}) || b.Max != (mathx.Vec3{X: 1, Y: 2, Z: 3}) {
		t.Errorf("bounds: %+v", b)
	}
	c := pc.Clone()
	c.Points[0].X = 9
	if pc.Points[0].X != -1 {
		t.Error("write to clone mutated original")
	}
}

func TestFromMeshVertices(t *testing.T) {
	m := quadMesh()
	m.SetUniformColor(mathx.V3(0, 1, 0))
	pc := FromMeshVertices(m, 1)
	if pc.Count() != 4 {
		t.Errorf("Count = %d", pc.Count())
	}
	if pc.Colors[2] != (mathx.Vec3{X: 0, Y: 1, Z: 0}) {
		t.Errorf("color not carried: %v", pc.Colors[2])
	}
	strided := FromMeshVertices(m, 2)
	if strided.Count() != 2 {
		t.Errorf("strided Count = %d", strided.Count())
	}
	// Stride < 1 behaves like 1.
	if FromMeshVertices(m, 0).Count() != 4 {
		t.Error("stride 0 not clamped")
	}
}

func TestPointCloudSplitSpatially(t *testing.T) {
	pc := &PointCloud{}
	for i := 0; i < 100; i++ {
		pc.Points = append(pc.Points, mathx.V3(float64(i), 0, 0))
		pc.Colors = append(pc.Colors, mathx.V3(float64(i), 0, 0))
	}
	pieces := pc.SplitSpatially(4)
	if len(pieces) != 4 {
		t.Fatalf("want 4 pieces, got %d", len(pieces))
	}
	total := 0
	for _, p := range pieces {
		total += p.Count()
		if err := p.Validate(); err != nil {
			t.Fatalf("piece invalid: %v", err)
		}
		// Colors kept aligned with their points.
		for i, pt := range p.Points {
			if p.Colors[i].X != pt.X {
				t.Fatalf("color misaligned: %v vs %v", p.Colors[i], pt)
			}
		}
	}
	if total != 100 {
		t.Errorf("split lost points: %d", total)
	}
	// Degenerate cases.
	if got := pc.SplitSpatially(1); len(got) != 1 || got[0].Count() != 100 {
		t.Error("split 1 wrong")
	}
	empty := &PointCloud{}
	if got := empty.SplitSpatially(3); len(got) != 1 {
		t.Error("empty split wrong")
	}
	flat := cloudOf(mathx.V3(1, 1, 1), mathx.V3(1, 1, 1))
	if got := flat.SplitSpatially(3); len(got) != 1 {
		t.Error("zero-span split wrong")
	}
}
