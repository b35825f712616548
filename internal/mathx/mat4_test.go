package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestIdentityIsNeutral(t *testing.T) {
	m := Translate(V3(1, 2, 3)).Mul(RotateY(0.7))
	if got := m.Mul(Identity()); !got.ApproxEq(m, 1e-12) {
		t.Errorf("m * I != m")
	}
	if got := Identity().Mul(m); !got.ApproxEq(m, 1e-12) {
		t.Errorf("I * m != m")
	}
	if !Identity().IsIdentity() {
		t.Error("Identity().IsIdentity() = false")
	}
}

func TestTranslatePoint(t *testing.T) {
	m := Translate(V3(5, -1, 2))
	if got := m.TransformPoint(V3(1, 1, 1)); !got.ApproxEq(V3(6, 0, 3)) {
		t.Errorf("translate point: got %v", got)
	}
	// Directions ignore translation.
	if got := m.TransformDir(V3(1, 1, 1)); !got.ApproxEq(V3(1, 1, 1)) {
		t.Errorf("translate dir: got %v", got)
	}
}

func TestScaleAndRotate(t *testing.T) {
	if got := Scale(V3(2, 3, 4)).TransformPoint(V3(1, 1, 1)); !got.ApproxEq(V3(2, 3, 4)) {
		t.Errorf("scale: got %v", got)
	}
	if got := UniformScale(2).TransformPoint(V3(1, 2, 3)); !got.ApproxEq(V3(2, 4, 6)) {
		t.Errorf("uniform scale: got %v", got)
	}
	// Rotating X axis by 90 deg about Z gives Y axis.
	if got := RotateZ(math.Pi / 2).TransformPoint(V3(1, 0, 0)); !got.ApproxEq(V3(0, 1, 0)) {
		t.Errorf("rotateZ: got %v", got)
	}
	if got := RotateX(math.Pi / 2).TransformPoint(V3(0, 1, 0)); !got.ApproxEq(V3(0, 0, 1)) {
		t.Errorf("rotateX: got %v", got)
	}
	if got := RotateY(math.Pi / 2).TransformPoint(V3(0, 0, 1)); !got.ApproxEq(V3(1, 0, 0)) {
		t.Errorf("rotateY: got %v", got)
	}
}

func TestRotateAxisMatchesElementary(t *testing.T) {
	for _, angle := range []float64{0, 0.3, -1.2, math.Pi} {
		if !RotateAxis(V3(0, 1, 0), angle).ApproxEq(RotateY(angle), 1e-12) {
			t.Errorf("RotateAxis(Y, %v) != RotateY", angle)
		}
		if !RotateAxis(V3(1, 0, 0), angle).ApproxEq(RotateX(angle), 1e-12) {
			t.Errorf("RotateAxis(X, %v) != RotateX", angle)
		}
	}
}

func TestMulAssociative(t *testing.T) {
	a := Translate(V3(1, 2, 3))
	b := RotateY(0.5)
	c := Scale(V3(2, 2, 2))
	if !a.Mul(b).Mul(c).ApproxEq(a.Mul(b.Mul(c)), 1e-12) {
		t.Error("matrix multiplication not associative")
	}
}

func TestLookAtMapsEyeToOrigin(t *testing.T) {
	eye := V3(3, 4, 5)
	view := LookAt(eye, V3(0, 0, 0), V3(0, 1, 0))
	if got := view.TransformPoint(eye); got.Len() > 1e-9 {
		t.Errorf("eye maps to %v, want origin", got)
	}
	// The target should land on the -Z axis (right-handed convention).
	tgt := view.TransformPoint(V3(0, 0, 0))
	if tgt.Z >= 0 || math.Abs(tgt.X) > 1e-9 || math.Abs(tgt.Y) > 1e-9 {
		t.Errorf("target maps to %v, want on -Z axis", tgt)
	}
}

func TestPerspectiveDepthRange(t *testing.T) {
	p := Perspective(Radians(60), 1, 1, 100)
	near := p.MulVec4(FromPoint(V3(0, 0, -1))).PerspectiveDivide()
	far := p.MulVec4(FromPoint(V3(0, 0, -100))).PerspectiveDivide()
	almostEq(t, near.Z, -1, 1e-9, "near plane NDC depth")
	almostEq(t, far.Z, 1, 1e-9, "far plane NDC depth")
}

func TestPropRotationPreservesLength(t *testing.T) {
	f := func(v Vec3, angle float64) bool {
		v = sv(v)
		angle = small(angle)
		r := RotateAxis(V3(1, 2, 3), angle)
		return math.Abs(r.TransformPoint(v).Len()-v.Len()) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
