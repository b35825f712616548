package genmodel

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/mathx"
)

func TestParamSurfaceGrid(t *testing.T) {
	m := ParamSurface(4, 3, false, false, func(s, t float64) mathx.Vec3 {
		return mathx.V3(s, t, 0)
	})
	if m.VertexCount() != 5*4 {
		t.Errorf("vertices: %d", m.VertexCount())
	}
	if m.TriangleCount() != 2*4*3 {
		t.Errorf("triangles: %d", m.TriangleCount())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamSurfaceWrap(t *testing.T) {
	mWrap := ParamSurface(8, 2, true, false, func(s, t float64) mathx.Vec3 {
		return mathx.V3(math.Cos(s*2*math.Pi), t, math.Sin(s*2*math.Pi))
	})
	// Wrapped U: 8 columns instead of 9.
	if mWrap.VertexCount() != 8*3 {
		t.Errorf("wrapped vertices: %d", mWrap.VertexCount())
	}
	if mWrap.TriangleCount() != 2*8*2 {
		t.Errorf("wrapped triangles: %d", mWrap.TriangleCount())
	}
	if err := mWrap.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamSurfaceMinimumDims(t *testing.T) {
	m := ParamSurface(0, 0, false, false, func(s, t float64) mathx.Vec3 {
		return mathx.V3(s, t, 0)
	})
	if m.TriangleCount() < 2 {
		t.Errorf("degenerate dims: %d triangles", m.TriangleCount())
	}
}

func TestSphereGeometry(t *testing.T) {
	c := mathx.V3(1, 2, 3)
	m := Sphere(c, 2, 32, 16)
	for _, p := range m.Positions {
		if r := p.Sub(c).Len(); math.Abs(r-2) > 1e-9 {
			t.Fatalf("sphere vertex at radius %v", r)
		}
	}
	// Area approximates 4 pi r^2.
	want := 4 * math.Pi * 4
	got := 0.0
	for i := 0; i < m.TriangleCount(); i++ {
		a, b, c := m.Triangle(i)
		got += b.Sub(a).Cross(c.Sub(a)).Len() / 2
	}
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("sphere area %v want ~%v", got, want)
	}
}

func TestCapsuleGeometry(t *testing.T) {
	a, b := mathx.V3(0, 0, 0), mathx.V3(0, 4, 0)
	m := Capsule(a, b, 1, 24, 24)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// All vertices within distance 1 (+eps) of segment ab.
	for _, p := range m.Positions {
		y := mathx.Clamp(p.Y, 0, 4)
		d := p.Sub(mathx.V3(0, y, 0)).Len()
		if d > 1+1e-9 {
			t.Fatalf("capsule vertex %v at distance %v", p, d)
		}
	}
	bounds := m.Bounds()
	if bounds.Min.Y > -0.99 || bounds.Max.Y < 4.99 {
		t.Errorf("capsule caps missing: %+v", bounds)
	}
	// Degenerate capsule (a == b) must not produce NaNs.
	d := Capsule(a, a, 1, 8, 8)
	for _, p := range d.Positions {
		if math.IsNaN(p.X + p.Y + p.Z) {
			t.Fatal("degenerate capsule produced NaN")
		}
	}
}

func TestTorusGeometry(t *testing.T) {
	m := Torus(mathx.Vec3{}, 3, 0.5, 1, 32, 16)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Positions {
		// Distance from the major circle must equal the minor radius.
		ring := math.Hypot(p.X, p.Z)
		d := math.Hypot(ring-3, p.Y)
		if math.Abs(d-0.5) > 1e-9 {
			t.Fatalf("torus vertex off tube: %v", d)
		}
	}
	// Partial arc spans fewer vertices in theta.
	arc := Torus(mathx.Vec3{}, 3, 0.5, 0.5, 32, 16)
	if arc.Bounds().Min.X > -3.51 && arc.Bounds().Max.X < 3.51 {
		// Half arc covers theta in [0, pi]: x from -3.5 to 3.5, z >= 0.
		if arc.Bounds().Min.Z < -0.51 {
			t.Errorf("half torus dips below z=0: %+v", arc.Bounds())
		}
	}
}

func TestSheetBulge(t *testing.T) {
	m := Sheet(mathx.Vec3{}, mathx.V3(2, 0, 0), mathx.V3(0, 2, 0), 0.5, 8, 8)
	maxZ := 0.0
	for _, p := range m.Positions {
		if math.Abs(p.Z) > maxZ {
			maxZ = math.Abs(p.Z)
		}
	}
	if math.Abs(maxZ-0.5) > 0.01 {
		t.Errorf("sheet bulge: %v", maxZ)
	}
}

func TestModelTriangleBudgets(t *testing.T) {
	cases := []struct {
		name   string
		gen    func(int) *geom.Mesh
		target int
	}{
		{"hand-small", SkeletalHand, 20_000},
		{"skeleton-small", Skeleton, 50_000},
		{"elle", Elle, PaperElleTriangles},
		{"galleon", Galleon, PaperGalleonTriangles},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.gen(tc.target)
			if err := m.Validate(); err != nil {
				t.Fatalf("invalid: %v", err)
			}
			got := m.TriangleCount()
			// Within 25% of target (rounding across dozens of parts).
			if math.Abs(float64(got-tc.target))/float64(tc.target) > 0.25 {
				t.Errorf("triangles %d, want ~%d", got, tc.target)
			}
			if m.Normals == nil {
				t.Error("no normals")
			}
		})
	}
}

func TestModelsAreFiniteAndBounded(t *testing.T) {
	for _, name := range []string{NameSkeletalHand, NameSkeleton, NameElle, NameGalleon} {
		m, err := ByName(name, 5000)
		if err != nil {
			t.Fatal(err)
		}
		b := m.Bounds()
		if b.IsEmpty() || b.Diagonal() > 100 {
			t.Errorf("%s: suspicious bounds %+v", name, b)
		}
		for _, p := range m.Positions {
			if math.IsNaN(p.X+p.Y+p.Z) || math.IsInf(p.X+p.Y+p.Z, 0) {
				t.Fatalf("%s: non-finite vertex", name)
			}
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("starship", 100); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestByNameDefaultsToPaperCounts(t *testing.T) {
	m, err := ByName(NameGalleon, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := m.TriangleCount()
	if math.Abs(float64(got-PaperGalleonTriangles))/PaperGalleonTriangles > 0.25 {
		t.Errorf("galleon default count %d, want ~%d", got, PaperGalleonTriangles)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := Galleon(4000)
	b := Galleon(4000)
	if a.TriangleCount() != b.TriangleCount() || a.VertexCount() != b.VertexCount() {
		t.Fatal("generation not deterministic")
	}
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			t.Fatal("positions differ between runs")
		}
	}
}

func TestPropSplitPiecesStayInBounds(t *testing.T) {
	f := func(seed uint16) bool {
		n := int(seed%6) + 2
		m := Elle(4000)
		bounds := m.Bounds()
		// Inflate for float error.
		bounds.Min = bounds.Min.Sub(mathx.V3(1e-9, 1e-9, 1e-9))
		bounds.Max = bounds.Max.Add(mathx.V3(1e-9, 1e-9, 1e-9))
		for _, piece := range m.SplitSpatially(n) {
			pb := piece.Bounds()
			if !bounds.Contains(pb.Min) || !bounds.Contains(pb.Max) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

func TestPropBudgetScalesMonotonically(t *testing.T) {
	prev := 0
	for _, budget := range []int{500, 2000, 8000, 32000} {
		m := Galleon(budget)
		got := m.TriangleCount()
		if got <= prev {
			t.Fatalf("budget %d gave %d triangles, not more than %d", budget, got, prev)
		}
		prev = got
	}
}
