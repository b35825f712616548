package mathx

import "math"

// Mat4 is a 4x4 row-major matrix: element (r, c) lives at index r*4+c.
// Points are treated as column vectors and transform as M * v.
type Mat4 [16]float64

// Identity returns the 4x4 identity matrix.
func Identity() Mat4 {
	return Mat4{
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
}

// Mul returns the matrix product m * n.
func (m Mat4) Mul(n Mat4) Mat4 {
	var out Mat4
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			sum := 0.0
			for k := 0; k < 4; k++ {
				sum += m[r*4+k] * n[k*4+c]
			}
			out[r*4+c] = sum
		}
	}
	return out
}

// MulVec4 returns the product m * v. Like TransformDir it takes the
// matrix by pointer: the rasterizer calls both once per vertex, and a
// 128-byte copy per call showed in its profile.
func (m *Mat4) MulVec4(v Vec4) Vec4 {
	return Vec4{
		m[0]*v.X + m[1]*v.Y + m[2]*v.Z + m[3]*v.W,
		m[4]*v.X + m[5]*v.Y + m[6]*v.Z + m[7]*v.W,
		m[8]*v.X + m[9]*v.Y + m[10]*v.Z + m[11]*v.W,
		m[12]*v.X + m[13]*v.Y + m[14]*v.Z + m[15]*v.W,
	}
}

// TransformPoint applies m to a point (W=1) and performs the perspective
// divide if m has a projective bottom row.
func (m Mat4) TransformPoint(p Vec3) Vec3 {
	v := m.MulVec4(FromPoint(p))
	if math.Abs(v.W-1) > Epsilon && math.Abs(v.W) > Epsilon {
		return v.PerspectiveDivide()
	}
	return v.XYZ()
}

// TransformDir applies m to a direction (W=0); translation is ignored.
func (m *Mat4) TransformDir(d Vec3) Vec3 {
	return m.MulVec4(FromDir(d)).XYZ()
}

// Translate returns a translation matrix.
func Translate(t Vec3) Mat4 {
	return Mat4{
		1, 0, 0, t.X,
		0, 1, 0, t.Y,
		0, 0, 1, t.Z,
		0, 0, 0, 1,
	}
}

// Scale returns a non-uniform scaling matrix.
func Scale(s Vec3) Mat4 {
	return Mat4{
		s.X, 0, 0, 0,
		0, s.Y, 0, 0,
		0, 0, s.Z, 0,
		0, 0, 0, 1,
	}
}

// UniformScale returns a uniform scaling matrix.
func UniformScale(s float64) Mat4 { return Scale(Vec3{s, s, s}) }

// RotateX returns a rotation of angle radians about the X axis.
func RotateX(angle float64) Mat4 {
	c, s := math.Cos(angle), math.Sin(angle)
	return Mat4{
		1, 0, 0, 0,
		0, c, -s, 0,
		0, s, c, 0,
		0, 0, 0, 1,
	}
}

// RotateY returns a rotation of angle radians about the Y axis.
func RotateY(angle float64) Mat4 {
	c, s := math.Cos(angle), math.Sin(angle)
	return Mat4{
		c, 0, s, 0,
		0, 1, 0, 0,
		-s, 0, c, 0,
		0, 0, 0, 1,
	}
}

// RotateZ returns a rotation of angle radians about the Z axis.
func RotateZ(angle float64) Mat4 {
	c, s := math.Cos(angle), math.Sin(angle)
	return Mat4{
		c, -s, 0, 0,
		s, c, 0, 0,
		0, 0, 1, 0,
		0, 0, 0, 1,
	}
}

// RotateAxis returns a rotation of angle radians about an arbitrary unit
// axis.
func RotateAxis(axis Vec3, angle float64) Mat4 {
	a := axis.Normalize()
	c, s := math.Cos(angle), math.Sin(angle)
	t := 1 - c
	x, y, z := a.X, a.Y, a.Z
	return Mat4{
		t*x*x + c, t*x*y - s*z, t*x*z + s*y, 0,
		t*x*y + s*z, t*y*y + c, t*y*z - s*x, 0,
		t*x*z - s*y, t*y*z + s*x, t*z*z + c, 0,
		0, 0, 0, 1,
	}
}

// LookAt returns a right-handed view matrix placing the camera at eye,
// looking at target, with the given up hint.
func LookAt(eye, target, up Vec3) Mat4 {
	f := target.Sub(eye).Normalize() // forward
	s := f.Cross(up).Normalize()     // right
	u := s.Cross(f)                  // true up
	return Mat4{
		s.X, s.Y, s.Z, -s.Dot(eye),
		u.X, u.Y, u.Z, -u.Dot(eye),
		-f.X, -f.Y, -f.Z, f.Dot(eye),
		0, 0, 0, 1,
	}
}

// Perspective returns a right-handed perspective projection with the given
// vertical field of view (radians), aspect ratio and near/far planes,
// mapping depth to [-1, 1] (OpenGL convention, matching Java3D's pipeline).
func Perspective(fovy, aspect, near, far float64) Mat4 {
	f := 1 / math.Tan(fovy/2)
	return Mat4{
		f / aspect, 0, 0, 0,
		0, f, 0, 0,
		0, 0, (far + near) / (near - far), 2 * far * near / (near - far),
		0, 0, -1, 0,
	}
}

// ApproxEq reports whether every element of m and n differs by less than
// tol.
func (m Mat4) ApproxEq(n Mat4, tol float64) bool {
	for i := range m {
		if math.Abs(m[i]-n[i]) > tol {
			return false
		}
	}
	return true
}

// IsIdentity reports whether m is (approximately) the identity matrix.
func (m Mat4) IsIdentity() bool { return m.ApproxEq(Identity(), Epsilon) }
