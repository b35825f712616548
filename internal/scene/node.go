// Package scene implements RAVE's scene tree (§3.1.1): a hierarchy of
// transform nodes whose payloads are polygons, point clouds or voxels —
// "nodes of the tree may contain various types of data" — plus the avatar
// nodes that represent collaborating clients (§3.2.4). The data service
// holds the authoritative scene; render services hold replicas kept in
// sync by the update ops in ops.go.
package scene

import (
	"fmt"
	"sync"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// NodeID identifies a node within a scene. The zero ID is invalid; the
// root is always ID 1.
type NodeID uint64

// RootID is the ID of every scene's root group node.
const RootID NodeID = 1

// Kind enumerates payload types.
type Kind uint8

// Payload kinds. Group is a pure transform node with no geometry.
const (
	KindGroup Kind = iota
	KindMesh
	KindPoints
	KindVoxels
	KindAvatar
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindGroup:
		return "group"
	case KindMesh:
		return "mesh"
	case KindPoints:
		return "points"
	case KindVoxels:
		return "voxels"
	case KindAvatar:
		return "avatar"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Payload is the geometric content of a node.
type Payload interface {
	// Kind identifies the payload type.
	Kind() Kind
	// Cost reports the payload's resource demands, used by the workload
	// distribution metrics (§3.2.7).
	Cost() Cost
	// ClonePayload returns a deep copy.
	ClonePayload() Payload
	// BoundsLocal returns the payload's bounding box in node-local space.
	BoundsLocal() mathx.AABB
}

// MeshPayload wraps a triangle mesh. A payload a scene holds is never
// changed in place — ops clone their payload in and SetPayloadOp replaces
// the node's — so its bounds are computed once, not once per frame's
// frustum cull; set Mesh before the first BoundsLocal call and leave it.
type MeshPayload struct {
	Mesh *geom.Mesh

	boundsOnce sync.Once
	bounds     mathx.AABB
}

// Kind implements Payload.
func (p *MeshPayload) Kind() Kind { return KindMesh }

// Cost implements Payload. Color and normal attributes count towards
// "texture memory" since they occupy graphics memory the same way.
func (p *MeshPayload) Cost() Cost {
	c := Cost{Triangles: p.Mesh.TriangleCount()}
	c.Bytes = int64(len(p.Mesh.Positions))*24 + int64(len(p.Mesh.Indices))*4
	c.Bytes += int64(len(p.Mesh.Normals))*24 + int64(len(p.Mesh.Colors))*24
	return c
}

// ClonePayload implements Payload.
func (p *MeshPayload) ClonePayload() Payload { return &MeshPayload{Mesh: p.Mesh.Clone()} }

// BoundsLocal implements Payload.
func (p *MeshPayload) BoundsLocal() mathx.AABB {
	p.boundsOnce.Do(func() { p.bounds = p.Mesh.Bounds() })
	return p.bounds
}

// PointsPayload wraps a point cloud.
type PointsPayload struct {
	Cloud *geom.PointCloud
}

// Kind implements Payload.
func (p *PointsPayload) Kind() Kind { return KindPoints }

// Cost implements Payload.
func (p *PointsPayload) Cost() Cost {
	return Cost{
		Points: p.Cloud.Count(),
		Bytes:  int64(len(p.Cloud.Points))*24 + int64(len(p.Cloud.Colors))*24,
	}
}

// ClonePayload implements Payload.
func (p *PointsPayload) ClonePayload() Payload { return &PointsPayload{Cloud: p.Cloud.Clone()} }

// BoundsLocal implements Payload.
func (p *PointsPayload) BoundsLocal() mathx.AABB { return p.Cloud.Bounds() }

// VoxelsPayload wraps a voxel grid with its display iso-threshold.
type VoxelsPayload struct {
	Grid *geom.VoxelGrid
	Iso  float64
}

// Kind implements Payload.
func (p *VoxelsPayload) Kind() Kind { return KindVoxels }

// Cost implements Payload.
func (p *VoxelsPayload) Cost() Cost {
	return Cost{
		Voxels: len(p.Grid.Data),
		Bytes:  int64(len(p.Grid.Data)) * 4,
	}
}

// ClonePayload implements Payload.
func (p *VoxelsPayload) ClonePayload() Payload {
	return &VoxelsPayload{Grid: p.Grid.Clone(), Iso: p.Iso}
}

// BoundsLocal implements Payload.
func (p *VoxelsPayload) BoundsLocal() mathx.AABB { return p.Grid.Bounds() }

// AvatarPayload marks a node as a client's avatar: "a simple graphical
// object to indicate the position and view of the client" (§3.2.4). The
// avatar's pose is the node transform.
type AvatarPayload struct {
	User  string
	Color mathx.Vec3
}

// Kind implements Payload.
func (p *AvatarPayload) Kind() Kind { return KindAvatar }

// Cost implements Payload. Avatars are visually negligible cones.
func (p *AvatarPayload) Cost() Cost { return Cost{Triangles: avatarTriangles, Bytes: 1 << 10} }

// avatarTriangles is the nominal cost of the avatar cone.
const avatarTriangles = 32

// ClonePayload implements Payload.
func (p *AvatarPayload) ClonePayload() Payload { cp := *p; return &cp }

// BoundsLocal implements Payload: a unit-ish cone around the origin. It
// is nominal — collab.AvatarMesh, the cone drawn, lies outside it — so
// the render service culls avatars on that mesh's bounds instead.
func (p *AvatarPayload) BoundsLocal() mathx.AABB {
	return mathx.AABB{Min: mathx.V3(-0.5, -0.5, -1), Max: mathx.V3(0.5, 0.5, 0)}
}

// Node is one scene-tree node: a named transform with an optional payload
// and children.
type Node struct {
	ID        NodeID
	Name      string
	Transform mathx.Mat4
	Payload   Payload // nil for pure group nodes
	Children  []*Node
}

// Kind returns the node's payload kind (KindGroup when payload is nil).
func (n *Node) Kind() Kind {
	if n.Payload == nil {
		return KindGroup
	}
	return n.Payload.Kind()
}

// clone deep-copies the node and its subtree.
func (n *Node) clone() *Node {
	out := &Node{
		ID:        n.ID,
		Name:      n.Name,
		Transform: n.Transform,
	}
	if n.Payload != nil {
		out.Payload = n.Payload.ClonePayload()
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, c.clone())
	}
	return out
}

// Cost aggregates the resource demands of a payload or subtree, in the
// units the paper's migration metrics use: polygons/points/voxels per
// second capacity on one side, and counts plus memory bytes on the other.
type Cost struct {
	Triangles int
	Points    int
	Voxels    int
	Bytes     int64
}

// Add returns the sum of two costs.
func (c Cost) Add(o Cost) Cost {
	return Cost{
		Triangles: c.Triangles + o.Triangles,
		Points:    c.Points + o.Points,
		Voxels:    c.Voxels + o.Voxels,
		Bytes:     c.Bytes + o.Bytes,
	}
}

// Work returns a single scalar load figure: the primitive count weighted
// so that points and voxels cost a fraction of a triangle.
func (c Cost) Work() float64 {
	return float64(c.Triangles) + 0.25*float64(c.Points) + 0.05*float64(c.Voxels)
}

// IsZero reports whether the cost is empty.
func (c Cost) IsZero() bool {
	return c.Triangles == 0 && c.Points == 0 && c.Voxels == 0 && c.Bytes == 0
}
