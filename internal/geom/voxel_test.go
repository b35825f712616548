package geom

import (
	"testing"

	"repro/internal/mathx"
)

func TestVoxelGridIndexing(t *testing.T) {
	g := NewVoxelGrid(3, 4, 5, mathx.V3(1, 2, 3), 0.5)
	if err := g.Validate(); err != nil {
		t.Fatalf("fresh grid invalid: %v", err)
	}
	g.Set(2, 3, 4, 7)
	if got := g.At(2, 3, 4); got != 7 {
		t.Errorf("At = %v", got)
	}
	if got := g.Index(2, 3, 4); got != len(g.Data)-1 {
		t.Errorf("last index = %d, want %d", got, len(g.Data)-1)
	}
	if got := g.WorldPos(2, 0, 0); !got.ApproxEq(mathx.V3(2, 2, 3)) {
		t.Errorf("WorldPos: %v", got)
	}
}

func TestVoxelGridValidate(t *testing.T) {
	g := NewVoxelGrid(2, 2, 2, mathx.Vec3{}, 1)
	g.Data = g.Data[:7]
	if err := g.Validate(); err == nil {
		t.Error("short data accepted")
	}
	g2 := NewVoxelGrid(2, 2, 2, mathx.Vec3{}, 0)
	if err := g2.Validate(); err == nil {
		t.Error("zero spacing accepted")
	}
}

func TestVoxelGridBounds(t *testing.T) {
	g := NewVoxelGrid(3, 3, 3, mathx.V3(0, 0, 0), 2)
	b := g.Bounds()
	if !b.Max.ApproxEq(mathx.V3(4, 4, 4)) {
		t.Errorf("bounds max: %v", b.Max)
	}
	empty := NewVoxelGrid(0, 3, 3, mathx.Vec3{}, 1)
	if !empty.Bounds().IsEmpty() {
		t.Error("degenerate grid bounds not empty")
	}
}

func TestVoxelGridCloneIndependent(t *testing.T) {
	g := NewVoxelGrid(2, 2, 2, mathx.Vec3{}, 1)
	c := g.Clone()
	c.Set(0, 0, 0, 5)
	if g.At(0, 0, 0) == 5 {
		t.Error("clone shares data")
	}
}

func TestVoxelFillAndFields(t *testing.T) {
	g := NewVoxelGrid(9, 9, 9, mathx.V3(-2, -2, -2), 0.5)
	g.Fill(SphereField(mathx.Vec3{}, 1))
	// Center sample is inside (positive), corner outside (negative).
	if g.At(4, 4, 4) <= 0 {
		t.Error("center not inside sphere")
	}
	if g.At(0, 0, 0) >= 0 {
		t.Error("corner inside sphere")
	}
}

func TestSplitSlabsCoversGrid(t *testing.T) {
	g := NewVoxelGrid(4, 4, 9, mathx.V3(0, 0, 0), 1)
	for i := range g.Data {
		g.Data[i] = float32(i)
	}
	slabs := g.SplitSlabs(3)
	if len(slabs) != 3 {
		t.Fatalf("want 3 slabs, got %d", len(slabs))
	}
	// Union of slab Z ranges covers the grid with one-sample overlap.
	totalZ := 0
	for _, s := range slabs {
		if err := s.Validate(); err != nil {
			t.Fatalf("slab invalid: %v", err)
		}
		totalZ += s.NZ
	}
	if totalZ != g.NZ+len(slabs)-1 {
		t.Errorf("slab layers total %d, want %d", totalZ, g.NZ+len(slabs)-1)
	}
	// Data preserved: first slab's first layer equals grid's first layer.
	for i := 0; i < g.NX*g.NY; i++ {
		if slabs[0].Data[i] != g.Data[i] {
			t.Fatalf("slab 0 layer 0 data mismatch at %d", i)
		}
	}
	// Last slab's last layer equals grid's last layer.
	last := slabs[len(slabs)-1]
	off := g.NX * g.NY * (g.NZ - 1)
	loff := g.NX * g.NY * (last.NZ - 1)
	for i := 0; i < g.NX*g.NY; i++ {
		if last.Data[loff+i] != g.Data[off+i] {
			t.Fatalf("last slab data mismatch at %d", i)
		}
	}
}

func TestSplitSlabsDegenerate(t *testing.T) {
	g := NewVoxelGrid(4, 4, 2, mathx.Vec3{}, 1)
	slabs := g.SplitSlabs(10) // more slabs than layers
	if len(slabs) < 1 {
		t.Fatal("no slabs")
	}
	one := g.SplitSlabs(1)
	if len(one) != 1 || one[0].NZ != 2 {
		t.Errorf("single slab: %d pieces", len(one))
	}
}
