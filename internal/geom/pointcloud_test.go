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
