package feed

import (
	"fmt"
	"math"
	"time"

	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/scene"
)

// Molecule is the "third-party simulator" of the paper's §5.2 example: a
// mass-spring molecular model whose atoms RAVE displays as sphere nodes.
// Users exert forces on atoms through the ApplyForce interaction; the
// dynamics run here, outside the visualization system.
type Molecule struct {
	// Atoms hold positions and velocities.
	positions  []mathx.Vec3
	velocities []mathx.Vec3
	radii      []float64
	// Bonds are springs between atom indices with rest lengths.
	bonds []bond
	// Pending external forces, consumed each step.
	forces []mathx.Vec3

	// Damping in [0,1): velocity retained per second.
	Damping float64
	// Stiffness of bonds (force per unit extension).
	Stiffness float64

	nodeIDs []scene.NodeID
}

type bond struct {
	a, b int
	rest float64
}

// NewWaterlikeMolecule builds a small bent three-atom molecule (one big
// central atom, two small satellites) with two bonds — enough structure
// for the demo without pretending to be chemistry.
func NewWaterlikeMolecule() *Molecule {
	m := &Molecule{
		Damping:   0.45,
		Stiffness: 18,
	}
	m.addAtom(mathx.V3(0, 0, 0), 0.45)
	m.addAtom(mathx.V3(0.9, 0.5, 0), 0.28)
	m.addAtom(mathx.V3(-0.9, 0.5, 0), 0.28)
	m.addBond(0, 1)
	m.addBond(0, 2)
	return m
}

func (m *Molecule) addAtom(p mathx.Vec3, radius float64) {
	m.positions = append(m.positions, p)
	m.velocities = append(m.velocities, mathx.Vec3{})
	m.radii = append(m.radii, radius)
	m.forces = append(m.forces, mathx.Vec3{})
}

func (m *Molecule) addBond(a, b int) {
	m.bonds = append(m.bonds, bond{a: a, b: b, rest: m.positions[a].Dist(m.positions[b])})
}

// AtomCount returns the number of atoms.
func (m *Molecule) AtomCount() int { return len(m.positions) }

// AtomNode returns the scene node ID of atom i (0 before Attach).
func (m *Molecule) AtomNode(i int) scene.NodeID {
	if i < 0 || i >= len(m.nodeIDs) {
		return 0
	}
	return m.nodeIDs[i]
}

// AtomPosition returns atom i's current position.
func (m *Molecule) AtomPosition(i int) mathx.Vec3 { return m.positions[i] }

// ApplyForce queues an external force on atom i — the user interaction
// the paper describes. The force acts during the next Step.
func (m *Molecule) ApplyForce(i int, f mathx.Vec3) error {
	if i < 0 || i >= len(m.positions) {
		return fmt.Errorf("feed: atom %d out of range", i)
	}
	m.forces[i] = m.forces[i].Add(f)
	return nil
}

// ApplyForceToNode routes a force by scene node ID, for GUI callers that
// know the picked node rather than the atom index.
func (m *Molecule) ApplyForceToNode(id scene.NodeID, f mathx.Vec3) error {
	for i, nid := range m.nodeIDs {
		if nid == id {
			return m.ApplyForce(i, f)
		}
	}
	return fmt.Errorf("feed: node %d is not an atom", id)
}

// Attach implements Source: one sphere node per atom under a molecule
// group.
func (m *Molecule) Attach(alloc func() scene.NodeID) ([]scene.Op, error) {
	if len(m.nodeIDs) != 0 {
		return nil, fmt.Errorf("feed: molecule already attached")
	}
	groupID := alloc()
	ops := []scene.Op{&scene.AddNodeOp{
		Parent: scene.RootID, ID: groupID, Name: "molecule", Transform: mathx.Identity(),
	}}
	for i, p := range m.positions {
		id := alloc()
		m.nodeIDs = append(m.nodeIDs, id)
		sphere := genmodel.Sphere(mathx.Vec3{}, m.radii[i], 20, 10)
		sphere.ComputeNormals()
		color := mathx.V3(0.85, 0.2, 0.2)
		if i > 0 {
			color = mathx.V3(0.85, 0.85, 0.9)
		}
		sphere.SetUniformColor(color)
		ops = append(ops, &scene.AddNodeOp{
			Parent:    groupID,
			ID:        id,
			Name:      fmt.Sprintf("atom-%d", i),
			Transform: mathx.Translate(p),
			Payload:   &scene.MeshPayload{Mesh: sphere},
		})
	}
	return ops, nil
}

// Step implements Source: integrate the mass-spring system and emit one
// SetTransform per atom that moved.
func (m *Molecule) Step(dt time.Duration) ([]scene.Op, error) {
	if len(m.nodeIDs) == 0 {
		return nil, fmt.Errorf("feed: molecule not attached")
	}
	h := dt.Seconds()
	if h <= 0 || h > 0.5 {
		return nil, fmt.Errorf("feed: step %v out of range", dt)
	}
	// Accumulate spring forces.
	acc := make([]mathx.Vec3, len(m.positions))
	copy(acc, m.forces)
	for i := range m.forces {
		m.forces[i] = mathx.Vec3{}
	}
	for _, b := range m.bonds {
		d := m.positions[b.b].Sub(m.positions[b.a])
		l := d.Len()
		if l < 1e-9 {
			continue
		}
		f := d.Scale(m.Stiffness * (l - b.rest) / l)
		acc[b.a] = acc[b.a].Add(f)
		acc[b.b] = acc[b.b].Sub(f)
	}
	// Semi-implicit Euler with damping.
	damp := math.Pow(1-m.Damping, h)
	var ops []scene.Op
	for i := range m.positions {
		m.velocities[i] = m.velocities[i].Add(acc[i].Scale(h)).Scale(damp)
		delta := m.velocities[i].Scale(h)
		if delta.Len() < 1e-7 {
			continue
		}
		m.positions[i] = m.positions[i].Add(delta)
		ops = append(ops, &scene.SetTransformOp{
			ID:        m.nodeIDs[i],
			Transform: mathx.Translate(m.positions[i]),
		})
	}
	return ops, nil
}

// Energy returns the system's kinetic + elastic energy, for convergence
// tests.
func (m *Molecule) Energy() float64 {
	e := 0.0
	for _, v := range m.velocities {
		e += 0.5 * v.LenSq()
	}
	for _, b := range m.bonds {
		ext := m.positions[b.a].Dist(m.positions[b.b]) - b.rest
		e += 0.5 * m.Stiffness * ext * ext
	}
	return e
}

var _ Source = (*Molecule)(nil)
