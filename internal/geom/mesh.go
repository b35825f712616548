// Package geom provides the geometry substrate of RAVE: triangle meshes,
// point clouds and voxel grids (the three node payload types the paper's
// scene tree supports), together with normal generation and spatial
// splitting.
package geom

import (
	"fmt"

	"repro/internal/mathx"
)

// Mesh is an indexed triangle mesh. Normals and Colors are optional and,
// when present, must be per-vertex (same length as Positions).
type Mesh struct {
	Positions []mathx.Vec3
	Normals   []mathx.Vec3
	Colors    []mathx.Vec3
	Indices   []uint32 // length is a multiple of 3; CCW winding faces outward
}

// TriangleCount returns the number of triangles in the mesh.
func (m *Mesh) TriangleCount() int { return len(m.Indices) / 3 }

// VertexCount returns the number of vertices in the mesh.
func (m *Mesh) VertexCount() int { return len(m.Positions) }

// Triangle returns the three vertex positions of triangle i.
func (m *Mesh) Triangle(i int) (a, b, c mathx.Vec3) {
	return m.Positions[m.Indices[3*i]],
		m.Positions[m.Indices[3*i+1]],
		m.Positions[m.Indices[3*i+2]]
}

// Validate checks index bounds and attribute lengths.
func (m *Mesh) Validate() error {
	if len(m.Indices)%3 != 0 {
		return fmt.Errorf("geom: index count %d not a multiple of 3", len(m.Indices))
	}
	n := uint32(len(m.Positions))
	for i, idx := range m.Indices {
		if idx >= n {
			return fmt.Errorf("geom: index %d at position %d out of range (%d vertices)", idx, i, n)
		}
	}
	if m.Normals != nil && len(m.Normals) != len(m.Positions) {
		return fmt.Errorf("geom: %d normals for %d vertices", len(m.Normals), len(m.Positions))
	}
	if m.Colors != nil && len(m.Colors) != len(m.Positions) {
		return fmt.Errorf("geom: %d colors for %d vertices", len(m.Colors), len(m.Positions))
	}
	return nil
}

// Bounds returns the axis-aligned bounding box of the mesh vertices.
func (m *Mesh) Bounds() mathx.AABB {
	b := mathx.EmptyAABB()
	for _, p := range m.Positions {
		b = b.ExtendPoint(p)
	}
	return b
}

// Clone returns a deep copy of the mesh.
func (m *Mesh) Clone() *Mesh {
	out := &Mesh{
		Positions: append([]mathx.Vec3(nil), m.Positions...),
		Indices:   append([]uint32(nil), m.Indices...),
	}
	if m.Normals != nil {
		out.Normals = append([]mathx.Vec3(nil), m.Normals...)
	}
	if m.Colors != nil {
		out.Colors = append([]mathx.Vec3(nil), m.Colors...)
	}
	return out
}

// ComputeNormals replaces the mesh normals with area-weighted smooth
// per-vertex normals.
func (m *Mesh) ComputeNormals() {
	normals := make([]mathx.Vec3, len(m.Positions))
	for i := 0; i < m.TriangleCount(); i++ {
		ia, ib, ic := m.Indices[3*i], m.Indices[3*i+1], m.Indices[3*i+2]
		a, b, c := m.Positions[ia], m.Positions[ib], m.Positions[ic]
		// Cross product magnitude is twice the triangle area, giving the
		// area weighting for free.
		n := b.Sub(a).Cross(c.Sub(a))
		normals[ia] = normals[ia].Add(n)
		normals[ib] = normals[ib].Add(n)
		normals[ic] = normals[ic].Add(n)
	}
	for i := range normals {
		normals[i] = normals[i].Normalize()
	}
	m.Normals = normals
}

// Append merges other into m, offsetting indices. Attribute presence is
// reconciled: if either mesh has normals/colors, the merged mesh has them
// (zero-filled where missing).
func (m *Mesh) Append(other *Mesh) {
	base := uint32(len(m.Positions))
	m.Positions = append(m.Positions, other.Positions...)
	for _, idx := range other.Indices {
		m.Indices = append(m.Indices, base+idx)
	}
	mergeAttr := func(dst *[]mathx.Vec3, src []mathx.Vec3, dstLen, srcLen int) {
		if *dst == nil && src == nil {
			return
		}
		if *dst == nil {
			*dst = make([]mathx.Vec3, dstLen)
		}
		if src == nil {
			src = make([]mathx.Vec3, srcLen)
		}
		*dst = append(*dst, src...)
	}
	mergeAttr(&m.Normals, other.Normals, int(base), len(other.Positions))
	mergeAttr(&m.Colors, other.Colors, int(base), len(other.Positions))
}

// SetUniformColor assigns the same color to every vertex.
func (m *Mesh) SetUniformColor(c mathx.Vec3) {
	m.Colors = make([]mathx.Vec3, len(m.Positions))
	for i := range m.Colors {
		m.Colors[i] = c
	}
}

// SplitSpatially partitions the mesh into at most n pieces along the
// longest axis of its bounding box, assigning each triangle by centroid.
// This is the unit of dataset distribution: each piece can be handed to a
// different render service. Empty pieces are dropped.
func (m *Mesh) SplitSpatially(n int) []*Mesh {
	if n <= 1 || m.TriangleCount() == 0 {
		return []*Mesh{m.Clone()}
	}
	bounds := m.Bounds()
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
		return []*Mesh{m.Clone()}
	}

	// First pass: bucket triangle indices.
	buckets := make([][]uint32, n)
	for i := 0; i < m.TriangleCount(); i++ {
		a, b, c := m.Triangle(i)
		centroid := a.Add(b).Add(c).Scale(1.0 / 3)
		k := int(float64(n) * (axisValue(centroid) - lo) / span)
		if k >= n {
			k = n - 1
		}
		if k < 0 {
			k = 0
		}
		buckets[k] = append(buckets[k], m.Indices[3*i], m.Indices[3*i+1], m.Indices[3*i+2])
	}

	// Second pass: compact each bucket into a standalone mesh with
	// remapped vertices.
	var out []*Mesh
	for _, tri := range buckets {
		if len(tri) == 0 {
			continue
		}
		remap := make(map[uint32]uint32)
		piece := &Mesh{}
		if m.Normals != nil {
			piece.Normals = []mathx.Vec3{}
		}
		if m.Colors != nil {
			piece.Colors = []mathx.Vec3{}
		}
		for _, idx := range tri {
			ni, ok := remap[idx]
			if !ok {
				ni = uint32(len(piece.Positions))
				remap[idx] = ni
				piece.Positions = append(piece.Positions, m.Positions[idx])
				if m.Normals != nil {
					piece.Normals = append(piece.Normals, m.Normals[idx])
				}
				if m.Colors != nil {
					piece.Colors = append(piece.Colors, m.Colors[idx])
				}
			}
			piece.Indices = append(piece.Indices, ni)
		}
		out = append(out, piece)
	}
	if len(out) == 0 {
		return []*Mesh{m.Clone()}
	}
	return out
}
