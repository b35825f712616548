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

// FromMeshVertices samples a point cloud from the vertices of a mesh.
func FromMeshVertices(m *Mesh, stride int) *PointCloud {
	if stride < 1 {
		stride = 1
	}
	pc := &PointCloud{}
	for i := 0; i < len(m.Positions); i += stride {
		pc.Points = append(pc.Points, m.Positions[i])
		if m.Colors != nil {
			pc.Colors = append(pc.Colors, m.Colors[i])
		}
	}
	if m.Colors == nil {
		pc.Colors = nil
	}
	return pc
}

// SplitSpatially partitions the cloud into at most n pieces along the
// longest bounding-box axis, for dataset distribution.
func (pc *PointCloud) SplitSpatially(n int) []*PointCloud {
	if n <= 1 || len(pc.Points) == 0 {
		return []*PointCloud{pc.Clone()}
	}
	bounds := pc.Bounds()
	size := bounds.Size()
	axis := 0
	if size.Y > size.X && size.Y >= size.Z {
		axis = 1
	} else if size.Z > size.X && size.Z > size.Y {
		axis = 2
	}
	axisValue := func(v mathx.Vec3) float64 {
		switch axis {
		case 1:
			return v.Y
		case 2:
			return v.Z
		default:
			return v.X
		}
	}
	lo := axisValue(bounds.Min)
	span := axisValue(bounds.Max) - lo
	if span <= 0 {
		return []*PointCloud{pc.Clone()}
	}
	pieces := make([]*PointCloud, n)
	for i := range pieces {
		pieces[i] = &PointCloud{}
	}
	for i, p := range pc.Points {
		k := int(float64(n) * (axisValue(p) - lo) / span)
		if k >= n {
			k = n - 1
		}
		pieces[k].Points = append(pieces[k].Points, p)
		if pc.Colors != nil {
			pieces[k].Colors = append(pieces[k].Colors, pc.Colors[i])
		}
	}
	var out []*PointCloud
	for _, piece := range pieces {
		if len(piece.Points) > 0 {
			if pc.Colors == nil {
				piece.Colors = nil
			}
			out = append(out, piece)
		}
	}
	return out
}
