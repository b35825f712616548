package geom

import (
	"fmt"

	"repro/internal/mathx"
)

// VoxelGrid is a regular scalar field: NX*NY*NZ samples with the sample
// (i,j,k) located at Origin + (i,j,k)*Spacing: a renderable payload (the
// paper's planned voxel support, §6).
type VoxelGrid struct {
	NX, NY, NZ int
	Origin     mathx.Vec3
	Spacing    float64
	Data       []float32 // len NX*NY*NZ, index i + NX*(j + NY*k)
}

// NewVoxelGrid allocates a zeroed grid.
func NewVoxelGrid(nx, ny, nz int, origin mathx.Vec3, spacing float64) *VoxelGrid {
	return &VoxelGrid{
		NX: nx, NY: ny, NZ: nz,
		Origin:  origin,
		Spacing: spacing,
		Data:    make([]float32, nx*ny*nz),
	}
}

// Validate checks the data length against the dimensions.
func (g *VoxelGrid) Validate() error {
	if g.NX < 0 || g.NY < 0 || g.NZ < 0 {
		return fmt.Errorf("geom: negative voxel dimensions %dx%dx%d", g.NX, g.NY, g.NZ)
	}
	if len(g.Data) != g.NX*g.NY*g.NZ {
		return fmt.Errorf("geom: voxel data length %d != %d*%d*%d", len(g.Data), g.NX, g.NY, g.NZ)
	}
	if g.Spacing <= 0 {
		return fmt.Errorf("geom: non-positive voxel spacing %v", g.Spacing)
	}
	return nil
}

// Index returns the flat index of sample (i, j, k).
func (g *VoxelGrid) Index(i, j, k int) int { return i + g.NX*(j+g.NY*k) }

// At returns the sample value at (i, j, k).
func (g *VoxelGrid) At(i, j, k int) float32 { return g.Data[g.Index(i, j, k)] }

// Set stores v at sample (i, j, k).
func (g *VoxelGrid) Set(i, j, k int, v float32) { g.Data[g.Index(i, j, k)] = v }

// WorldPos returns the world-space position of sample (i, j, k).
func (g *VoxelGrid) WorldPos(i, j, k int) mathx.Vec3 {
	return g.Origin.Add(mathx.Vec3{
		X: float64(i) * g.Spacing,
		Y: float64(j) * g.Spacing,
		Z: float64(k) * g.Spacing,
	})
}

// Bounds returns the world-space bounding box of the grid.
func (g *VoxelGrid) Bounds() mathx.AABB {
	if g.NX == 0 || g.NY == 0 || g.NZ == 0 {
		return mathx.EmptyAABB()
	}
	return mathx.AABB{
		Min: g.Origin,
		Max: g.WorldPos(g.NX-1, g.NY-1, g.NZ-1),
	}
}

// Clone returns a deep copy.
func (g *VoxelGrid) Clone() *VoxelGrid {
	out := *g
	out.Data = append([]float32(nil), g.Data...)
	return &out
}

// Fill evaluates f at every sample position and stores the result.
func (g *VoxelGrid) Fill(f func(p mathx.Vec3) float64) {
	for k := 0; k < g.NZ; k++ {
		for j := 0; j < g.NY; j++ {
			for i := 0; i < g.NX; i++ {
				g.Set(i, j, k, float32(f(g.WorldPos(i, j, k))))
			}
		}
	}
}

// SplitSlabs partitions the grid into at most n slabs along Z (with one
// sample of overlap so surfaces reconstruct seamlessly), for dataset
// distribution of volume data across render services. Blending order is
// back-to-front by slab distance, as the paper describes for Visapult-style
// volume subsets (§6).
func (g *VoxelGrid) SplitSlabs(n int) []*VoxelGrid {
	if n <= 1 || g.NZ <= 1 {
		return []*VoxelGrid{g.Clone()}
	}
	if n > g.NZ-1 {
		n = g.NZ - 1
	}
	var out []*VoxelGrid
	for s := 0; s < n; s++ {
		z0 := s * (g.NZ - 1) / n
		z1 := (s+1)*(g.NZ-1)/n + 1 // inclusive of the shared boundary layer
		if z1 > g.NZ {
			z1 = g.NZ
		}
		slab := NewVoxelGrid(g.NX, g.NY, z1-z0, g.WorldPos(0, 0, z0), g.Spacing)
		for k := z0; k < z1; k++ {
			src := g.Data[g.NX*g.NY*k : g.NX*g.NY*(k+1)]
			dst := slab.Data[g.NX*g.NY*(k-z0) : g.NX*g.NY*(k-z0+1)]
			copy(dst, src)
		}
		out = append(out, slab)
	}
	return out
}

// SphereField returns a signed field that is positive inside a sphere —
// handy for tests and synthetic volumes.
func SphereField(center mathx.Vec3, radius float64) func(p mathx.Vec3) float64 {
	return func(p mathx.Vec3) float64 {
		return radius - p.Sub(center).Len()
	}
}
