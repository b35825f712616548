package geom

import (
	"fmt"

	"repro/internal/mathx"
)

// PointCloud is a set of colored points — one of the scene-tree payload
// types the paper plans to distribute across render services (§6).
type PointCloud struct {
	Points []mathx.Vec3
	Colors []mathx.Vec3 // optional, per point
}

// Count returns the number of points.
func (pc *PointCloud) Count() int { return len(pc.Points) }

// Validate checks attribute lengths.
func (pc *PointCloud) Validate() error {
	if pc.Colors != nil && len(pc.Colors) != len(pc.Points) {
		return fmt.Errorf("geom: %d colors for %d points", len(pc.Colors), len(pc.Points))
	}
	return nil
}

// Bounds returns the axis-aligned bounding box of the points.
func (pc *PointCloud) Bounds() mathx.AABB {
	b := mathx.EmptyAABB()
	for _, p := range pc.Points {
		b = b.ExtendPoint(p)
	}
	return b
}

// Clone returns a deep copy.
func (pc *PointCloud) Clone() *PointCloud {
	out := &PointCloud{Points: append([]mathx.Vec3(nil), pc.Points...)}
	if pc.Colors != nil {
		out.Colors = append([]mathx.Vec3(nil), pc.Colors...)
	}
	return out
}
