package raster

import (
	"fmt"
	"image"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// One setup record is written by the setup stage and read back by every
// band for each drawn triangle of each frame: at the 312 bytes it had
// when it carried copies of its three vertices, thin_orbit's 23 k
// triangles moved 5.6 MB a frame through it, more than L2 holds. It
// refers to the vertex records instead; a field added here is paid for
// in memory traffic on every triangle, so the size is pinned.
func TestSetupRecordStaysLean(t *testing.T) {
	if size := unsafe.Sizeof(triSetup{}); size > 160 {
		t.Errorf("triSetup is %d bytes, want at most 160: keep per-vertex values in screenVert", size)
	}
}

// straddlers is a soup of n triangles around the eye of lookingCamera,
// nearly all of them crossing the near plane, with a colour per vertex.
func straddlers(t *testing.T, n int) orderScene {
	rng := rand.New(rand.NewSource(24))
	m := &geom.Mesh{}
	cam := lookingCamera()
	for i := 0; i < n; i++ {
		for k := 0; k < 3; k++ {
			// In front of the eye (z = 5) or behind it, by turns, so every
			// triangle has vertices on both sides.
			z := 4.5 - 4*rng.Float64()
			if (i+k)%3 == 0 {
				z = 5.2 + 2*rng.Float64()
			}
			m.Positions = append(m.Positions, mathx.V3(rng.Float64()*4-2, rng.Float64()*3-1.5, z))
			m.Colors = append(m.Colors, mathx.V3(rng.Float64(), rng.Float64(), rng.Float64()))
			m.Indices = append(m.Indices, uint32(3*i+k))
		}
	}
	mvp := cam.ViewProjection(96.0 / 64.0)
	straddling := 0
	for i := 0; i < n; i++ {
		in := 0
		for k := 0; k < 3; k++ {
			if c := mvp.MulVec4(mathx.FromPoint(m.Positions[3*i+k])); c.Z+c.W > nearEps {
				in++
			}
		}
		if in == 1 || in == 2 {
			straddling++
		}
	}
	if straddling < 2000 {
		t.Fatalf("only %d of %d triangles straddle the near plane", straddling, n)
	}
	return orderScene{"straddlers", m, cam}
}

// Vertices made by near-plane clipping live in storage that belongs to
// the setup worker's list and grows as the list is built; setup records
// made before it grew must still find their vertices after. Start from
// an empty pool, so the storage starts empty and doubles many times
// inside the one mesh.
func TestClippedVertexStorageGrowsInsideOneMesh(t *testing.T) {
	const fullW, fullH = 96, 64
	sc := straddlers(t, 2400)
	if len(sc.mesh.Positions) < forkMinVerts {
		t.Fatalf("%d vertices: too few to fork", len(sc.mesh.Positions))
	}
	emptyPool := func() {
		for len(meshPool.Get().(*Scratch).meshes) != 0 {
		}
	}
	for _, tile := range []image.Rectangle{{}, image.Rect(30, 10, 96, 64)} {
		emptyPool()
		serial, serialTris := renderOrder(sc, 1, tile, fullW, fullH, false, nil)
		if tile.Empty() && serialTris < 2000 {
			t.Fatalf("%d triangles drawn: the scene does not load the clip path", serialTris)
		}
		emptyPool()
		ref, refTris := renderOrder(sc, 1, tile, fullW, fullH, true, nil)
		assertParity(t, fmt.Sprintf("%v reference core", tile), serial, ref)
		if refTris != serialTris {
			t.Errorf("%v: reference core drew %d triangles, fixed-point core %d", tile, refTris, serialTris)
		}
		for _, workers := range []int{2, 3, 5} {
			emptyPool()
			got, tris := renderOrder(sc, workers, tile, fullW, fullH, false, nil)
			assertParity(t, fmt.Sprintf("%v Workers=%d", tile, workers), got, serial)
			if tris != serialTris {
				t.Errorf("%v: Workers=%d drew %d triangles, Workers=1 drew %d", tile, workers, tris, serialTris)
			}
		}
	}
}

// vertexOracle is the vertex stage as it was written before it filled
// one record in place: math.Max, and the projection built as a value.
// ok reports w > nearEps, without which there is no projection.
func vertexOracle(p *meshPass, i int) (v screenVert, clip mathx.Vec4, ok bool) {
	m := p.mesh
	clip = p.mvp.MulVec4(mathx.FromPoint(m.Positions[i]))
	n := p.model.TransformDir(m.Normals[i]).Normalize()
	diffuse := math.Max(0, n.Dot(p.light))
	v.color = m.Colors[i].Scale(p.ambient + (1-p.ambient)*diffuse)
	if clip.W <= nearEps {
		return v, clip, false
	}
	ndc := clip.PerspectiveDivide()
	v.sx = snapCoord((ndc.X*0.5+0.5)*p.fullW - p.ox)
	v.sy = snapCoord((0.5-ndc.Y*0.5)*p.fullH - p.oy)
	v.z, v.invW = ndc.Z, 1/clip.W
	return v, clip, true
}

// sameFloat is bit equality, any NaN equal to any other: which NaN a
// colour holds changes no pixel (toByte sends them all to 0), and
// math.Max made its own where the builtin hands on its operand's.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func sameColor(a, b mathx.Vec3) bool {
	return sameFloat(a.X, b.X) && sameFloat(a.Y, b.Y) && sameFloat(a.Z, b.Z)
}

func sameVert(a, b *screenVert) bool {
	return a.sx == b.sx && a.sy == b.sy && sameFloat(a.z, b.z) && sameFloat(a.invW, b.invW) && sameColor(a.color, b.color)
}

// A vertex is projected either once by the vertex stage or, for a
// triangle that straddles the near plane, again by the clip path from a
// recomputed clip position. The two must agree bit for bit, or a mesh's
// seams open where a clipped triangle meets an unclipped one — for every
// input a scene can hold, not only the finite ones.
func TestVertexStageEqualsClipPathProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 10000
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e30, -1e30, 1e-300, 0, math.Copysign(0, -1)}
	m := &geom.Mesh{}
	model := mathx.RotateY(0.7).Mul(mathx.Scale(mathx.V3(1, 2, 0.5)))
	toModel, _ := model.Invert()
	for i := 0; i < n; i++ {
		// In world space, where lookingCamera's eye plane is z = 5.
		pos := mathx.V3(rng.NormFloat64()*3, rng.NormFloat64()*3, 5.5-math.Abs(rng.NormFloat64())*4)
		switch i % 10 {
		case 0: // on or about the eye plane: w near zero, either sign
			pos.Z = 5 + (rng.Float64()-0.5)*4e-6
		case 1: // just in front of it: off beyond the snap guard band
			pos.Z = 5 - 1e-4*(1+rng.Float64())
		}
		pos = toModel.TransformPoint(pos)
		switch i % 10 {
		case 2:
			pos.Y = odd[rng.Intn(len(odd))]
		case 3:
			pos = mathx.V3(odd[rng.Intn(len(odd))], odd[rng.Intn(len(odd))], odd[rng.Intn(len(odd))])
		}
		m.Positions = append(m.Positions, pos)
		normal := mathx.V3(rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64())
		if i%50 == 4 {
			normal = mathx.V3(odd[rng.Intn(len(odd))], 0, odd[rng.Intn(len(odd))])
		}
		m.Normals = append(m.Normals, normal)
		m.Colors = append(m.Colors, mathx.V3(rng.Float64(), rng.Float64(), rng.Float64()))
	}
	for _, tile := range []struct{ fullW, fullH, ox, oy float64 }{{400, 400, 0, 0}, {640, 480, 320, 240}, {97, 31, 13, 7}} {
		p := &meshPass{
			mesh:    m,
			model:   model,
			light:   mathx.V3(0.4, 0.7, 1).Normalize(),
			ambient: 0.25,
			fullW:   tile.fullW, fullH: tile.fullH, ox: tile.ox, oy: tile.oy,
		}
		p.mvp = lookingCamera().ViewProjection(tile.fullW / tile.fullH).Mul(p.model)
		ms := new(meshScratch)
		ms.size(n, 1)
		p.shade(ms, 0, n)
		ready, unprojectable, clamped := 0, 0, 0
		for i := 0; i < n; i++ {
			want, clip, ok := vertexOracle(p, i)
			if got := p.clipPos(uint32(i)); !sameFloat(got.X, clip.X) || !sameFloat(got.Y, clip.Y) || !sameFloat(got.Z, clip.Z) || !sameFloat(got.W, clip.W) {
				t.Fatalf("vertex %d %v: clip position %v, want %v", i, m.Positions[i], got, clip)
			}
			if isReady := ok && clip.Z+clip.W > nearEps; (ms.ready[i] != 0) != isReady {
				t.Fatalf("vertex %d %v (clip %v): ready %d, want %v", i, m.Positions[i], clip, ms.ready[i], isReady)
			}
			// The clip path projects the same vertex into a record of its own.
			var out [3]screenVert
			cv := &clipVert{clip: p.clipPos(uint32(i)), color: ms.verts[i].color}
			p.toScreen([3]*clipVert{cv, cv, cv}, out[:])
			if !sameColor(ms.verts[i].color, want.color) {
				t.Fatalf("vertex %d: colour %v, want %v", i, ms.verts[i].color, want.color)
			}
			if !ok {
				unprojectable++
				if !sameVert(&out[0], &screenVert{}) {
					t.Fatalf("vertex %d: the clip path projected w = %g", i, clip.W)
				}
				continue
			}
			if !sameVert(&out[0], &want) {
				t.Fatalf("vertex %d %v: the clip path's record %+v, want %+v", i, m.Positions[i], out[0], want)
			}
			if want.sx == coordLimit || want.sx == -coordLimit {
				clamped++
			}
			if ms.ready[i] != 0 {
				ready++
				if !sameVert(&ms.verts[i], &want) {
					t.Fatalf("vertex %d %v: the vertex stage's record %+v, want %+v", i, m.Positions[i], ms.verts[i], want)
				}
			}
		}
		if ready < n/2 || unprojectable < n/20 || clamped < n/100 {
			t.Fatalf("weak sample: %d ready, %d unprojectable, %d clamped to the guard band", ready, unprojectable, clamped)
		}
	}
}
