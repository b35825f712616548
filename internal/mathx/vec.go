// Package mathx provides the small linear-algebra substrate used by the
// RAVE scene graph and software rasterizer: vectors, 4x4 matrices,
// axis-aligned bounding boxes, planes and view frustums.
//
// Matrices are row-major: element (r, c) is stored at index r*4+c, and
// vectors are treated as columns (points transform as M * v).
package mathx

import "math"

// Epsilon is the tolerance used by the approximate comparisons in this
// package.
const Epsilon = 1e-9

// Vec3 is a 3-component vector: positions, directions and RGB colors.
type Vec3 struct {
	X, Y, Z float64
}

// V3 is shorthand for Vec3{x, y, z}.
func V3(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + u.
func (v Vec3) Add(u Vec3) Vec3 { return Vec3{v.X + u.X, v.Y + u.Y, v.Z + u.Z} }

// Sub returns v - u.
func (v Vec3) Sub(u Vec3) Vec3 { return Vec3{v.X - u.X, v.Y - u.Y, v.Z - u.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Dot returns the dot product of v and u.
func (v Vec3) Dot(u Vec3) float64 { return v.X*u.X + v.Y*u.Y + v.Z*u.Z }

// Cross returns the cross product v x u.
func (v Vec3) Cross(u Vec3) Vec3 {
	return Vec3{
		v.Y*u.Z - v.Z*u.Y,
		v.Z*u.X - v.X*u.Z,
		v.X*u.Y - v.Y*u.X,
	}
}

// Len returns the Euclidean length of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.Dot(v)) }

// LenSq returns the squared length of v, avoiding the square root.
func (v Vec3) LenSq() float64 { return v.Dot(v) }

// Normalize returns v scaled to unit length. The zero vector is returned
// unchanged.
func (v Vec3) Normalize() Vec3 {
	l := v.Len()
	if l < Epsilon {
		return v
	}
	return v.Scale(1 / l)
}

// Lerp returns the linear interpolation between v and u at parameter t,
// with t=0 yielding v and t=1 yielding u.
func (v Vec3) Lerp(u Vec3, t float64) Vec3 {
	return Vec3{
		v.X + (u.X-v.X)*t,
		v.Y + (u.Y-v.Y)*t,
		v.Z + (u.Z-v.Z)*t,
	}
}

// Min returns the component-wise minimum of v and u. The builtin orders
// -0 below +0 and returns NaN for a NaN operand, as math.Min does except
// that math.Min(NaN, -Inf) is -Inf; unlike math.Min, an assembly call on
// amd64, it inlines, and every mesh bounds walk pays for this once a
// vertex.
func (v Vec3) Min(u Vec3) Vec3 {
	return Vec3{min(v.X, u.X), min(v.Y, u.Y), min(v.Z, u.Z)}
}

// Max returns the component-wise maximum of v and u (see Min).
func (v Vec3) Max(u Vec3) Vec3 {
	return Vec3{max(v.X, u.X), max(v.Y, u.Y), max(v.Z, u.Z)}
}

// Dist returns the Euclidean distance between v and u.
func (v Vec3) Dist(u Vec3) float64 { return v.Sub(u).Len() }

// ApproxEq reports whether v and u differ by less than Epsilon in every
// component.
func (v Vec3) ApproxEq(u Vec3) bool {
	return math.Abs(v.X-u.X) < Epsilon &&
		math.Abs(v.Y-u.Y) < Epsilon &&
		math.Abs(v.Z-u.Z) < Epsilon
}

// Vec4 is a 4-component homogeneous vector.
type Vec4 struct {
	X, Y, Z, W float64
}

// FromPoint promotes a point to homogeneous coordinates with W=1.
func FromPoint(v Vec3) Vec4 { return Vec4{v.X, v.Y, v.Z, 1} }

// FromDir promotes a direction to homogeneous coordinates with W=0.
func FromDir(v Vec3) Vec4 { return Vec4{v.X, v.Y, v.Z, 0} }

// Add returns v + u.
func (v Vec4) Add(u Vec4) Vec4 {
	return Vec4{v.X + u.X, v.Y + u.Y, v.Z + u.Z, v.W + u.W}
}

// Sub returns v - u.
func (v Vec4) Sub(u Vec4) Vec4 {
	return Vec4{v.X - u.X, v.Y - u.Y, v.Z - u.Z, v.W - u.W}
}

// Lerp returns the linear interpolation between v and u at parameter t.
func (v Vec4) Lerp(u Vec4, t float64) Vec4 {
	return Vec4{
		v.X + (u.X-v.X)*t,
		v.Y + (u.Y-v.Y)*t,
		v.Z + (u.Z-v.Z)*t,
		v.W + (u.W-v.W)*t,
	}
}

// XYZ drops the W component.
func (v Vec4) XYZ() Vec3 { return Vec3{v.X, v.Y, v.Z} }

// PerspectiveDivide returns the 3D point v/W. W must be non-zero.
func (v Vec4) PerspectiveDivide() Vec3 {
	inv := 1 / v.W
	return Vec3{v.X * inv, v.Y * inv, v.Z * inv}
}

// Clamp returns x limited to the range [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }
