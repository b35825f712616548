package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEmptyAABB(t *testing.T) {
	b := EmptyAABB()
	if !b.IsEmpty() {
		t.Fatal("EmptyAABB not empty")
	}
	if b.Contains(V3(0, 0, 0)) {
		t.Error("empty box contains origin")
	}
	b2 := b.ExtendPoint(V3(1, 2, 3))
	if b2.IsEmpty() {
		t.Fatal("extended box still empty")
	}
	if b2.Min != b2.Max || b2.Min != (Vec3{1, 2, 3}) {
		t.Errorf("single-point box: %+v", b2)
	}
}

func TestAABBUnionContains(t *testing.T) {
	a := AABB{V3(0, 0, 0), V3(1, 1, 1)}
	b := AABB{V3(2, 2, 2), V3(3, 3, 3)}
	u := a.Union(b)
	for _, p := range []Vec3{{0, 0, 0}, {1, 1, 1}, {2.5, 2.5, 2.5}, {3, 3, 3}} {
		if !u.Contains(p) {
			t.Errorf("union missing %v", p)
		}
	}
	if u.Contains(V3(-0.1, 0, 0)) {
		t.Error("union contains outside point")
	}
	// Union with empty is identity.
	if got := a.Union(EmptyAABB()); got != a {
		t.Errorf("union with empty: %+v", got)
	}
	if got := EmptyAABB().Union(a); got != a {
		t.Errorf("empty union a: %+v", got)
	}
}

func TestAABBMetrics(t *testing.T) {
	b := AABB{V3(0, 0, 0), V3(2, 3, 4)}
	if got := b.Center(); got != (Vec3{1, 1.5, 2}) {
		t.Errorf("center: %v", got)
	}
	if got := b.Size(); got != (Vec3{2, 3, 4}) {
		t.Errorf("size: %v", got)
	}
	almostEq(t, b.Diagonal(), math.Sqrt(4+9+16), 1e-12, "diagonal")
	if got := EmptyAABB().Size(); got != (Vec3{}) {
		t.Errorf("empty size: %v", got)
	}
}

func TestAABBTransform(t *testing.T) {
	b := AABB{V3(-1, -1, -1), V3(1, 1, 1)}
	moved := b.Transform(Translate(V3(10, 0, 0)))
	if !moved.Min.ApproxEq(V3(9, -1, -1)) || !moved.Max.ApproxEq(V3(11, 1, 1)) {
		t.Errorf("translated box: %+v", moved)
	}
	// A rotated unit cube's AABB grows to sqrt(2) in the rotated plane.
	rot := b.Transform(RotateZ(math.Pi / 4))
	almostEq(t, rot.Max.X, math.Sqrt2, 1e-9, "rotated extent")
	// Empty stays empty.
	if !EmptyAABB().Transform(RotateY(1)).IsEmpty() {
		t.Error("transformed empty box not empty")
	}
}

func TestFrustumIntersectsAABB(t *testing.T) {
	proj := Perspective(Radians(60), 1, 0.1, 100)
	view := LookAt(V3(0, 0, 10), V3(0, 0, 0), V3(0, 1, 0))
	f := FrustumFromMatrix(proj.Mul(view))

	visible := AABB{V3(-1, -1, -1), V3(1, 1, 1)}
	if !f.IntersectsAABB(visible) {
		t.Error("box at origin should be visible from z=10")
	}
	behind := AABB{V3(-1, -1, 20), V3(1, 1, 22)}
	if f.IntersectsAABB(behind) {
		t.Error("box behind camera should be culled")
	}
	if f.IntersectsAABB(EmptyAABB()) {
		t.Error("empty box intersects frustum")
	}
	// A huge box surrounding the whole frustum must intersect.
	huge := AABB{V3(-1e4, -1e4, -1e4), V3(1e4, 1e4, 1e4)}
	if !f.IntersectsAABB(huge) {
		t.Error("enclosing box culled")
	}
}

func TestPropUnionCommutativeAndGrows(t *testing.T) {
	mk := func(a, b Vec3) AABB {
		return AABB{Min: a.Min(b), Max: a.Max(b)}
	}
	f := func(a1, a2, b1, b2 Vec3) bool {
		a := mk(sv(a1), sv(a2))
		b := mk(sv(b1), sv(b2))
		u1 := a.Union(b)
		u2 := b.Union(a)
		if u1 != u2 {
			return false
		}
		// Union contains both boxes' corners.
		return u1.Contains(a.Min) && u1.Contains(a.Max) &&
			u1.Contains(b.Min) && u1.Contains(b.Max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropTransformContainsTransformedPoints(t *testing.T) {
	f := func(p1, p2, p3 Vec3, angle float64) bool {
		p1, p2, p3 = sv(p1), sv(p2), sv(p3)
		box := EmptyAABB().ExtendPoint(p1).ExtendPoint(p2).ExtendPoint(p3)
		m := RotateAxis(V3(1, 1, 0), small(angle)).Mul(Translate(V3(1, 2, 3)))
		tb := box.Transform(m)
		// Slightly inflate for float error.
		tb.Min = tb.Min.Sub(V3(1e-9, 1e-9, 1e-9))
		tb.Max = tb.Max.Add(V3(1e-9, 1e-9, 1e-9))
		for _, p := range []Vec3{p1, p2, p3} {
			if !tb.Contains(m.TransformPoint(p)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
