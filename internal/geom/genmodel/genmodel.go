// Package genmodel procedurally generates stand-ins for the four test
// models in the paper: the Georgia Tech "Skeletal Hand" (0.83 M polygons)
// and "Skeleton" (2.8 M polygons), the Blaxxun "Elle" VRML benchmark
// (50 k) and the Java3D "Galleon" sample (5.5 k). The originals are not
// redistributable, so each generator sculpts a shape of the same character
// from parametric primitives and accepts a target triangle count; the
// returned mesh lands within a few percent of the target, which is all
// Tables 1, 2 and 5 depend on.
package genmodel

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// Paper triangle counts for the benchmark models (Table 1 and §5.4).
const (
	PaperHandTriangles     = 830_000
	PaperSkeletonTriangles = 2_800_000
	PaperElleTriangles     = 50_000
	PaperGalleonTriangles  = 5_500
)

// ParamSurface tessellates the parametric surface f over a u x v grid of
// quads (each split into two triangles). Parameters s and t run over
// [0, 1]. When wrapU/wrapV is set the corresponding direction is closed
// (the last column/row of vertices is the first).
func ParamSurface(u, v int, wrapU, wrapV bool, f func(s, t float64) mathx.Vec3) *geom.Mesh {
	if u < 1 {
		u = 1
	}
	if v < 1 {
		v = 1
	}
	cols := u + 1
	if wrapU {
		cols = u
	}
	rows := v + 1
	if wrapV {
		rows = v
	}
	m := &geom.Mesh{Positions: make([]mathx.Vec3, 0, cols*rows)}
	for j := 0; j < rows; j++ {
		t := float64(j) / float64(v)
		for i := 0; i < cols; i++ {
			s := float64(i) / float64(u)
			m.Positions = append(m.Positions, f(s, t))
		}
	}
	at := func(i, j int) uint32 {
		if wrapU {
			i %= u
		}
		if wrapV {
			j %= v
		}
		return uint32(j*cols + i)
	}
	for j := 0; j < v; j++ {
		for i := 0; i < u; i++ {
			a := at(i, j)
			b := at(i+1, j)
			c := at(i+1, j+1)
			d := at(i, j+1)
			m.Indices = append(m.Indices, a, b, c, a, c, d)
		}
	}
	return m
}

// Sphere generates a UV sphere with u slices and v stacks.
func Sphere(center mathx.Vec3, radius float64, u, v int) *geom.Mesh {
	return ParamSurface(u, v, true, false, func(s, t float64) mathx.Vec3 {
		theta := s * 2 * math.Pi
		phi := t * math.Pi
		return center.Add(mathx.V3(
			radius*math.Sin(phi)*math.Cos(theta),
			radius*math.Cos(phi),
			radius*math.Sin(phi)*math.Sin(theta),
		))
	})
}

// Capsule generates a capsule from a to b with the given radius; u is the
// radial resolution and v the lengthwise resolution (split between the two
// hemispheres and the shaft).
func Capsule(a, b mathx.Vec3, radius float64, u, v int) *geom.Mesh {
	axis := b.Sub(a)
	length := axis.Len()
	dir := mathx.V3(0, 1, 0)
	if length > 1e-12 {
		dir = axis.Scale(1 / length)
	}
	// Build an orthonormal frame around dir.
	ref := mathx.V3(1, 0, 0)
	if math.Abs(dir.X) > 0.9 {
		ref = mathx.V3(0, 0, 1)
	}
	e1 := dir.Cross(ref).Normalize()
	e2 := dir.Cross(e1)

	// t in [0, 0.25]: bottom hemisphere; [0.25, 0.75]: shaft;
	// [0.75, 1]: top hemisphere.
	return ParamSurface(u, v, true, false, func(s, t float64) mathx.Vec3 {
		theta := s * 2 * math.Pi
		radial := e1.Scale(math.Cos(theta)).Add(e2.Scale(math.Sin(theta)))
		switch {
		case t < 0.25:
			phi := t / 0.25 * math.Pi / 2 // 0 at pole, pi/2 at equator
			return a.Add(dir.Scale(-radius * math.Cos(phi))).
				Add(radial.Scale(radius * math.Sin(phi)))
		case t > 0.75:
			phi := (1 - t) / 0.25 * math.Pi / 2
			return b.Add(dir.Scale(radius * math.Cos(phi))).
				Add(radial.Scale(radius * math.Sin(phi)))
		default:
			f := (t - 0.25) / 0.5
			return a.Add(axis.Scale(f)).Add(radial.Scale(radius))
		}
	})
}

// Torus generates a torus in the XZ plane centered at center, with major
// radius R and minor radius r, optionally only a partial arc of the major
// circle (arc in [0, 1], 1 being the full ring).
func Torus(center mathx.Vec3, R, r float64, arc float64, u, v int) *geom.Mesh {
	wrapU := arc >= 1
	return ParamSurface(u, v, wrapU, true, func(s, t float64) mathx.Vec3 {
		theta := s * 2 * math.Pi * arc
		phi := t * 2 * math.Pi
		cx := (R + r*math.Cos(phi)) * math.Cos(theta)
		cz := (R + r*math.Cos(phi)) * math.Sin(theta)
		cy := r * math.Sin(phi)
		return center.Add(mathx.V3(cx, cy, cz))
	})
}

// Sheet generates a gently curved rectangular sheet (used for sails): a
// grid over du x dv, bulged along the normal by bulge at the center.
func Sheet(origin, du, dv mathx.Vec3, bulge float64, u, v int) *geom.Mesh {
	n := du.Cross(dv).Normalize()
	return ParamSurface(u, v, false, false, func(s, t float64) mathx.Vec3 {
		h := bulge * math.Sin(s*math.Pi) * math.Sin(t*math.Pi)
		return origin.Add(du.Scale(s)).Add(dv.Scale(t)).Add(n.Scale(h))
	})
}

// part couples a build function with its triangle-count weight so a model
// can be tuned to a target triangle count without generating it repeatedly.
type part struct {
	// weight is the fraction of the total triangle budget this part gets.
	weight float64
	// build generates the part with approximately budget triangles.
	build func(budget int) *geom.Mesh
}

// assemble distributes targetTriangles across parts by weight and merges
// the results.
func assemble(targetTriangles int, parts []part) *geom.Mesh {
	total := 0.0
	for _, p := range parts {
		total += p.weight
	}
	out := &geom.Mesh{}
	for _, p := range parts {
		budget := int(float64(targetTriangles) * p.weight / total)
		if budget < 8 {
			budget = 8
		}
		out.Append(p.build(budget))
	}
	out.ComputeNormals()
	return out
}

// gridDims picks u, v with u/v aspect close to `aspect` such that
// 2*u*v ~= budget.
func gridDims(budget int, aspect float64) (u, v int) {
	if budget < 2 {
		budget = 2
	}
	vf := math.Sqrt(float64(budget) / (2 * aspect))
	uf := aspect * vf
	u = int(math.Max(3, math.Round(uf)))
	v = int(math.Max(2, math.Round(vf)))
	return u, v
}

// sphereOf builds a budget-tuned sphere part.
func sphereOf(center mathx.Vec3, radius, weight float64) part {
	return part{weight, func(budget int) *geom.Mesh {
		u, v := gridDims(budget, 2)
		return Sphere(center, radius, u, v)
	}}
}

// capsuleOf builds a budget-tuned capsule part.
func capsuleOf(a, b mathx.Vec3, radius, weight float64) part {
	return part{weight, func(budget int) *geom.Mesh {
		u, v := gridDims(budget, 1)
		return Capsule(a, b, radius, u, v)
	}}
}

// torusOf builds a budget-tuned torus arc part.
func torusOf(center mathx.Vec3, R, r, arc, weight float64) part {
	return part{weight, func(budget int) *geom.Mesh {
		u, v := gridDims(budget, 3)
		return Torus(center, R, r, arc, u, v)
	}}
}

// SkeletalHand generates a bony hand: a palm slab plus five articulated
// fingers of three phalanx capsules each with joint spheres, mirroring the
// Clemson skeletal hand's silhouette.
func SkeletalHand(targetTriangles int) *geom.Mesh {
	var parts []part
	// Palm: flattened box rendered as a dense capsule pair.
	parts = append(parts,
		capsuleOf(mathx.V3(-0.8, 0, 0), mathx.V3(0.8, 0, 0), 0.55, 3),
		capsuleOf(mathx.V3(-0.8, -0.5, 0), mathx.V3(0.8, -0.5, 0), 0.5, 2),
	)
	// Four fingers splayed along +Y, thumb along -X.
	fingerBase := []float64{-0.75, -0.25, 0.25, 0.75}
	fingerLen := []float64{0.9, 1.1, 1.2, 1.0}
	for f := 0; f < 4; f++ {
		x := fingerBase[f]
		segLen := fingerLen[f]
		y := 0.55
		r := 0.13
		for s := 0; s < 3; s++ {
			l := segLen * (1 - 0.22*float64(s))
			a := mathx.V3(x, y, 0)
			b := mathx.V3(x, y+l, -0.1*float64(s))
			parts = append(parts, capsuleOf(a, b, r, 1))
			parts = append(parts, sphereOf(b, r*1.25, 0.35))
			y += l + 0.02
			r *= 0.88
		}
	}
	// Thumb: two segments angled outward.
	parts = append(parts,
		capsuleOf(mathx.V3(-0.85, -0.2, 0), mathx.V3(-1.5, 0.35, 0.1), 0.16, 1),
		sphereOf(mathx.V3(-1.5, 0.35, 0.1), 0.2, 0.35),
		capsuleOf(mathx.V3(-1.5, 0.35, 0.1), mathx.V3(-1.9, 0.85, 0.15), 0.13, 1),
	)
	// Wrist stub.
	parts = append(parts, capsuleOf(mathx.V3(0, -1.0, 0), mathx.V3(0, -1.7, 0), 0.4, 1.5))
	return assemble(targetTriangles, parts)
}

// Skeleton generates a full-body skeleton silhouette: skull, spine, rib
// arcs, pelvis, and limb bones — the same part inventory as the Visible
// Man-derived model the paper used.
func Skeleton(targetTriangles int) *geom.Mesh {
	var parts []part
	// Skull and jaw.
	parts = append(parts,
		sphereOf(mathx.V3(0, 7.3, 0), 0.55, 3),
		capsuleOf(mathx.V3(-0.15, 6.85, 0.1), mathx.V3(0.15, 6.85, 0.1), 0.22, 0.8),
	)
	// Spine: a chain of vertebra capsules.
	for i := 0; i < 12; i++ {
		y0 := 6.6 - 0.45*float64(i)
		parts = append(parts, capsuleOf(
			mathx.V3(0, y0, 0), mathx.V3(0, y0-0.3, 0), 0.16, 0.6))
	}
	// Ribs: torus arcs, 8 pairs shrinking down the torso.
	for i := 0; i < 8; i++ {
		y := 6.2 - 0.35*float64(i)
		R := 0.95 - 0.04*float64(i)
		parts = append(parts, torusOf(mathx.V3(0, y, 0), R, 0.06, 0.8, 1.2))
	}
	// Clavicles and shoulder joints.
	parts = append(parts,
		capsuleOf(mathx.V3(0, 6.5, 0), mathx.V3(-1.2, 6.4, 0), 0.09, 0.5),
		capsuleOf(mathx.V3(0, 6.5, 0), mathx.V3(1.2, 6.4, 0), 0.09, 0.5),
		sphereOf(mathx.V3(-1.2, 6.4, 0), 0.18, 0.4),
		sphereOf(mathx.V3(1.2, 6.4, 0), 0.18, 0.4),
	)
	// Arms: humerus, ulna/radius pair, hand blob; both sides.
	for _, side := range []float64{-1, 1} {
		sx := side * 1.2
		parts = append(parts,
			capsuleOf(mathx.V3(sx, 6.4, 0), mathx.V3(sx*1.15, 4.9, 0), 0.13, 1),
			sphereOf(mathx.V3(sx*1.15, 4.9, 0), 0.16, 0.4),
			capsuleOf(mathx.V3(sx*1.15, 4.9, 0), mathx.V3(sx*1.25, 3.5, 0.2), 0.10, 1),
			capsuleOf(mathx.V3(sx*1.18, 4.9, 0.08), mathx.V3(sx*1.3, 3.5, 0.28), 0.07, 0.8),
			sphereOf(mathx.V3(sx*1.27, 3.4, 0.22), 0.15, 0.4),
		)
	}
	// Pelvis: two iliac torus arcs plus sacrum.
	parts = append(parts,
		torusOf(mathx.V3(0, 1.2, 0), 0.75, 0.14, 0.75, 1.4),
		capsuleOf(mathx.V3(0, 1.4, 0), mathx.V3(0, 0.9, 0.1), 0.2, 0.6),
	)
	// Legs: femur, tibia/fibula, foot; both sides.
	for _, side := range []float64{-1, 1} {
		sx := side * 0.55
		parts = append(parts,
			sphereOf(mathx.V3(sx, 1.0, 0), 0.2, 0.4),
			capsuleOf(mathx.V3(sx, 1.0, 0), mathx.V3(sx*1.1, -1.2, 0), 0.15, 1.2),
			sphereOf(mathx.V3(sx*1.1, -1.2, 0), 0.18, 0.4),
			capsuleOf(mathx.V3(sx*1.1, -1.2, 0), mathx.V3(sx*1.1, -3.3, 0), 0.11, 1.2),
			capsuleOf(mathx.V3(sx*1.15, -1.2, 0.05), mathx.V3(sx*1.15, -3.3, 0.05), 0.07, 0.8),
			capsuleOf(mathx.V3(sx*1.1, -3.4, 0), mathx.V3(sx*1.1, -3.5, 0.6), 0.12, 0.6),
		)
	}
	return assemble(targetTriangles, parts)
}

// Elle generates a clothed humanoid figure approximating the Blaxxun
// "Elle" VRML benchmark: smooth solid limbs rather than bones.
func Elle(targetTriangles int) *geom.Mesh {
	var parts []part
	parts = append(parts,
		sphereOf(mathx.V3(0, 6.9, 0), 0.5, 2),                          // head
		capsuleOf(mathx.V3(0, 6.4, 0), mathx.V3(0, 6.1, 0), 0.18, 0.5), // neck
		capsuleOf(mathx.V3(0, 6.0, 0), mathx.V3(0, 4.2, 0), 0.75, 4),   // torso
		capsuleOf(mathx.V3(0, 4.2, 0), mathx.V3(0, 3.4, 0), 0.65, 2),   // hips
	)
	for _, side := range []float64{-1, 1} {
		sx := side * 0.85
		parts = append(parts,
			capsuleOf(mathx.V3(sx, 5.9, 0), mathx.V3(sx*1.25, 4.5, 0), 0.2, 1.5), // upper arm
			capsuleOf(mathx.V3(sx*1.25, 4.5, 0), mathx.V3(sx*1.35, 3.2, 0.2), 0.16, 1.5),
			sphereOf(mathx.V3(sx*1.37, 3.05, 0.23), 0.2, 0.5),                          // hand
			capsuleOf(mathx.V3(side*0.4, 3.4, 0), mathx.V3(side*0.45, 1.4, 0), 0.3, 2), // thigh
			capsuleOf(mathx.V3(side*0.45, 1.4, 0), mathx.V3(side*0.45, -0.6, 0), 0.22, 2),
			capsuleOf(mathx.V3(side*0.45, -0.7, 0), mathx.V3(side*0.45, -0.8, 0.5), 0.15, 0.7), // foot
		)
	}
	return assemble(targetTriangles, parts)
}

// Galleon generates a sailing-ship model of the same character as the
// Java3D galleon sample: hull, deck, three masts, yards and sails.
func Galleon(targetTriangles int) *geom.Mesh {
	var parts []part
	// Hull: a half-capsule widened amidships.
	parts = append(parts, part{5, func(budget int) *geom.Mesh {
		u, v := gridDims(budget, 2)
		return ParamSurface(u, v, false, false, func(s, t float64) mathx.Vec3 {
			// s along the length, t around the half-profile.
			x := (s - 0.5) * 8
			taper := math.Sin(s * math.Pi) // pinch bow and stern
			phi := (t - 0.5) * math.Pi     // -pi/2 .. pi/2 under the waterline
			y := -math.Cos(phi) * 1.2 * (0.3 + 0.7*taper)
			z := math.Sin(phi) * 1.5 * (0.25 + 0.75*taper)
			return mathx.V3(x, y, z)
		})
	}})
	// Deck.
	parts = append(parts, part{1.5, func(budget int) *geom.Mesh {
		u, v := gridDims(budget, 4)
		return ParamSurface(u, v, false, false, func(s, t float64) mathx.Vec3 {
			x := (s - 0.5) * 8
			taper := math.Sin(s * math.Pi)
			z := (t - 0.5) * 3 * (0.25 + 0.75*taper)
			return mathx.V3(x, 0.05, z)
		})
	}})
	// Three masts with a yard and two sails each.
	mastX := []float64{-2.2, 0, 2.3}
	mastH := []float64{3.2, 4.2, 3.0}
	for i := range mastX {
		x, h := mastX[i], mastH[i]
		parts = append(parts,
			capsuleOf(mathx.V3(x, 0, 0), mathx.V3(x, h, 0), 0.08, 1),
			capsuleOf(mathx.V3(x, h*0.75, -1.2), mathx.V3(x, h*0.75, 1.2), 0.05, 0.7),
			capsuleOf(mathx.V3(x, h*0.4, -1.4), mathx.V3(x, h*0.4, 1.4), 0.05, 0.7),
		)
		xx, hh := x, h
		parts = append(parts, part{2, func(budget int) *geom.Mesh {
			u, v := gridDims(budget/2, 1)
			sail1 := Sheet(mathx.V3(xx, hh*0.45, -1.1),
				mathx.V3(0, hh*0.28, 0), mathx.V3(0, 0, 2.2), 0.5, u, v)
			sail2 := Sheet(mathx.V3(xx, hh*0.1, -1.3),
				mathx.V3(0, hh*0.28, 0), mathx.V3(0, 0, 2.6), 0.6, u, v)
			sail1.Append(sail2)
			return sail1
		}})
	}
	// Bowsprit.
	parts = append(parts, capsuleOf(mathx.V3(3.8, 0.3, 0), mathx.V3(5.2, 1.0, 0), 0.06, 0.5))
	return assemble(targetTriangles, parts)
}

// Named model identifiers accepted by ByName.
const (
	NameSkeletalHand = "skeletal-hand"
	NameSkeleton     = "skeleton"
	NameElle         = "elle"
	NameGalleon      = "galleon"
)

// ByName generates the named model at the given triangle budget; a zero or
// negative target selects the paper's published polygon count.
func ByName(name string, targetTriangles int) (*geom.Mesh, error) {
	switch name {
	case NameSkeletalHand:
		if targetTriangles <= 0 {
			targetTriangles = PaperHandTriangles
		}
		return SkeletalHand(targetTriangles), nil
	case NameSkeleton:
		if targetTriangles <= 0 {
			targetTriangles = PaperSkeletonTriangles
		}
		return Skeleton(targetTriangles), nil
	case NameElle:
		if targetTriangles <= 0 {
			targetTriangles = PaperElleTriangles
		}
		return Elle(targetTriangles), nil
	case NameGalleon:
		if targetTriangles <= 0 {
			targetTriangles = PaperGalleonTriangles
		}
		return Galleon(targetTriangles), nil
	default:
		return nil, fmt.Errorf("genmodel: unknown model %q", name)
	}
}
