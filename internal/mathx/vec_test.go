package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v want %v (tol %v)", msg, got, want, tol)
	}
}

func TestVec3Basics(t *testing.T) {
	a := V3(1, 2, 3)
	b := V3(4, -5, 6)
	if got := a.Add(b); got != (Vec3{5, -3, 9}) {
		t.Errorf("Add: got %v", got)
	}
	if got := a.Sub(b); got != (Vec3{-3, 7, -3}) {
		t.Errorf("Sub: got %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale: got %v", got)
	}
	if got := a.Dot(b); got != 1*4+2*-5+3*6 {
		t.Errorf("Dot: got %v", got)
	}
	if got := a.Neg(); got != (Vec3{-1, -2, -3}) {
		t.Errorf("Neg: got %v", got)
	}
}

func TestVec3CrossOrthogonality(t *testing.T) {
	a := V3(1, 0, 0)
	b := V3(0, 1, 0)
	if got := a.Cross(b); got != (Vec3{0, 0, 1}) {
		t.Fatalf("x cross y: got %v, want z", got)
	}
	c := V3(2, -3, 7).Cross(V3(-1, 5, 0.5))
	almostEq(t, c.Dot(V3(2, -3, 7)), 0, 1e-12, "cross perpendicular to first")
	almostEq(t, c.Dot(V3(-1, 5, 0.5)), 0, 1e-12, "cross perpendicular to second")
}

func TestVec3NormalizeUnitLength(t *testing.T) {
	v := V3(3, 4, 12).Normalize()
	almostEq(t, v.Len(), 1, 1e-12, "normalized length")
	if z := (Vec3{}).Normalize(); z != (Vec3{}) {
		t.Errorf("zero vector normalize: got %v, want zero", z)
	}
}

func TestVec3Lerp(t *testing.T) {
	a, b := V3(0, 0, 0), V3(10, -10, 4)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("lerp t=0: got %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("lerp t=1: got %v", got)
	}
	if got := a.Lerp(b, 0.5); got != (Vec3{5, -5, 2}) {
		t.Errorf("lerp t=0.5: got %v", got)
	}
}

func TestVec3MinMaxDist(t *testing.T) {
	a, b := V3(1, 5, -2), V3(3, -4, 0)
	if got := a.Min(b); got != (Vec3{1, -4, -2}) {
		t.Errorf("Min: got %v", got)
	}
	if got := a.Max(b); got != (Vec3{3, 5, 0}) {
		t.Errorf("Max: got %v", got)
	}
	almostEq(t, V3(0, 0, 0).Dist(V3(3, 4, 0)), 5, 1e-12, "dist")
}

// Vec3.Min and Max use the builtins, which inline where math.Min and
// math.Max do not; every bounds in the system is built through them, so
// they must agree with the math package on zeros of both signs,
// infinities, NaN and ordinary values, in every component. The one
// difference is pinned too: math.Min(NaN, -Inf) is -Inf and
// math.Max(NaN, +Inf) is +Inf, where the builtins return NaN as they do
// for every other NaN operand. A box with a NaN corner is never culled
// (Frustum.IntersectsAABB's comparisons are all false), so the change
// keeps culling conservative.
func TestVec3MinMaxMatchMathPackage(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	values := []float64{nan, inf, -inf, 0, negZero, 1, -1, 2.5, -3.75, math.MaxFloat64, math.SmallestNonzeroFloat64}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	// want is fn(x, y) except where NaN meets the infinity fn returns.
	want := func(fn func(x, y float64) float64, bound, x, y float64) float64 {
		if (math.IsNaN(x) && y == bound) || (x == bound && math.IsNaN(y)) {
			return nan
		}
		return fn(x, y)
	}
	for _, a := range values {
		for _, b := range values {
			lo, hi := V3(a, b, a).Min(V3(b, a, b)), V3(a, b, a).Max(V3(b, a, b))
			los, his := [3]float64{lo.X, lo.Y, lo.Z}, [3]float64{hi.X, hi.Y, hi.Z}
			for i := 0; i < 3; i++ {
				x, y := a, b
				if i == 1 {
					x, y = b, a
				}
				if w := want(math.Min, -inf, x, y); !same(los[i], w) {
					t.Errorf("Min(%v, %v) component %d = %v, want %v", x, y, i, los[i], w)
				}
				if w := want(math.Max, inf, x, y); !same(his[i], w) {
					t.Errorf("Max(%v, %v) component %d = %v, want %v", x, y, i, his[i], w)
				}
			}
		}
	}
}

func TestVec4PerspectiveDivide(t *testing.T) {
	v := Vec4{2, 4, 6, 2}
	if got := v.PerspectiveDivide(); got != (Vec3{1, 2, 3}) {
		t.Errorf("PerspectiveDivide: got %v", got)
	}
	if got := FromPoint(V3(1, 2, 3)); got != (Vec4{1, 2, 3, 1}) {
		t.Errorf("FromPoint: got %v", got)
	}
	if got := FromDir(V3(1, 2, 3)); got != (Vec4{1, 2, 3, 0}) {
		t.Errorf("FromDir: got %v", got)
	}
}

func TestClamp(t *testing.T) {
	for _, tc := range []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
	} {
		if got := Clamp(tc.x, tc.lo, tc.hi); got != tc.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", tc.x, tc.lo, tc.hi, got, tc.want)
		}
	}
}

func TestDegreesRadiansRoundTrip(t *testing.T) {
	almostEq(t, Radians(180), math.Pi, 1e-12, "radians")
	almostEq(t, Radians(37.5)*180/math.Pi, 37.5, 1e-12, "round trip")
}

// small bounds the magnitude of quick-generated values so float error stays
// comparable across properties.
func small(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 1
	}
	return math.Mod(x, 100)
}

func sv(v Vec3) Vec3 { return Vec3{small(v.X), small(v.Y), small(v.Z)} }

func TestPropCrossAnticommutative(t *testing.T) {
	f := func(a, b Vec3) bool {
		a, b = sv(a), sv(b)
		got := a.Cross(b)
		want := b.Cross(a).Neg()
		return got.Sub(want).Len() < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropDotCommutative(t *testing.T) {
	f := func(a, b Vec3) bool {
		a, b = sv(a), sv(b)
		return math.Abs(a.Dot(b)-b.Dot(a)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropCrossPerpendicular(t *testing.T) {
	f := func(a, b Vec3) bool {
		a, b = sv(a), sv(b)
		c := a.Cross(b)
		scale := a.Len()*b.Len() + 1
		return math.Abs(c.Dot(a))/scale < 1e-6 && math.Abs(c.Dot(b))/scale < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropTriangleInequality(t *testing.T) {
	f := func(a, b Vec3) bool {
		a, b = sv(a), sv(b)
		return a.Add(b).Len() <= a.Len()+b.Len()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
