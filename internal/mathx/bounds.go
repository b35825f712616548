package mathx

import "math"

// AABB is an axis-aligned bounding box. An empty box has Min > Max in every
// component; EmptyAABB constructs one.
type AABB struct {
	Min, Max Vec3
}

// EmptyAABB returns a box that contains nothing; extending it with any point
// yields a box containing exactly that point.
func EmptyAABB() AABB {
	inf := math.Inf(1)
	return AABB{
		Min: Vec3{inf, inf, inf},
		Max: Vec3{-inf, -inf, -inf},
	}
}

// IsEmpty reports whether the box contains no points.
func (b AABB) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// ExtendPoint returns the smallest box containing both b and p.
func (b AABB) ExtendPoint(p Vec3) AABB {
	return AABB{Min: b.Min.Min(p), Max: b.Max.Max(p)}
}

// Union returns the smallest box containing both b and o.
func (b AABB) Union(o AABB) AABB {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return AABB{Min: b.Min.Min(o.Min), Max: b.Max.Max(o.Max)}
}

// Contains reports whether p lies inside or on the boundary of b.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Center returns the midpoint of the box.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Size returns the extents of the box along each axis.
func (b AABB) Size() Vec3 {
	if b.IsEmpty() {
		return Vec3{}
	}
	return b.Max.Sub(b.Min)
}

// Diagonal returns the length of the box diagonal.
func (b AABB) Diagonal() float64 { return b.Size().Len() }

// Transform returns the axis-aligned box containing the 8 transformed
// corners of b.
func (b AABB) Transform(m Mat4) AABB {
	if b.IsEmpty() {
		return b
	}
	out := EmptyAABB()
	for i := 0; i < 8; i++ {
		p := Vec3{b.Min.X, b.Min.Y, b.Min.Z}
		if i&1 != 0 {
			p.X = b.Max.X
		}
		if i&2 != 0 {
			p.Y = b.Max.Y
		}
		if i&4 != 0 {
			p.Z = b.Max.Z
		}
		out = out.ExtendPoint(m.TransformPoint(p))
	}
	return out
}

// Plane is the set of points p with Normal . p + D = 0. The normal need not
// be unit length for signed-distance comparisons against zero.
type Plane struct {
	Normal Vec3
	D      float64
}

// SignedDist returns the signed distance (scaled by |Normal|) from p to the
// plane; positive is on the normal side.
func (pl Plane) SignedDist(p Vec3) float64 {
	return pl.Normal.Dot(p) + pl.D
}

// Frustum is six planes with normals pointing inward; a point is inside when
// it is on the positive side of all six.
type Frustum [6]Plane

// FrustumFromMatrix extracts the six clip planes from a combined
// view-projection matrix (Gribb/Hartmann method). Normals point inward.
func FrustumFromMatrix(vp Mat4) Frustum {
	row := func(r int) Vec4 {
		return Vec4{vp[r*4+0], vp[r*4+1], vp[r*4+2], vp[r*4+3]}
	}
	r0, r1, r2, r3 := row(0), row(1), row(2), row(3)
	mk := func(v Vec4) Plane {
		return Plane{Normal: Vec3{v.X, v.Y, v.Z}, D: v.W}
	}
	return Frustum{
		mk(r3.Add(r0)), // left
		mk(r3.Sub(r0)), // right
		mk(r3.Add(r1)), // bottom
		mk(r3.Sub(r1)), // top
		mk(r3.Add(r2)), // near
		mk(r3.Sub(r2)), // far
	}
}

// IntersectsAABB conservatively reports whether the box may intersect the
// frustum (it never returns false for a visible box, but may return true
// for some boxes that are actually outside).
func (f Frustum) IntersectsAABB(b AABB) bool {
	if b.IsEmpty() {
		return false
	}
	for _, pl := range f {
		// Pick the box corner furthest along the plane normal; if even it
		// is outside, the whole box is outside.
		p := b.Min
		if pl.Normal.X >= 0 {
			p.X = b.Max.X
		}
		if pl.Normal.Y >= 0 {
			p.Y = b.Max.Y
		}
		if pl.Normal.Z >= 0 {
			p.Z = b.Max.Z
		}
		if pl.SignedDist(p) < 0 {
			return false
		}
	}
	return true
}
