package scene

import (
	"fmt"

	"repro/internal/mathx"
)

// OpKind identifies an update operation for marshalling.
type OpKind uint8

// Update operation kinds.
const (
	OpAddNode OpKind = iota + 1
	OpRemoveNode
	OpSetTransform
	OpSetName
	OpSetPayload
)

// Op is one scene update: the unit of change the data service applies to
// its authoritative scene, appends to the audit trail, and fans out to
// every subscribed render service (§3.1.1–3.1.2). Applying the same op
// stream to any replica of the same base scene yields the same scene.
//
// An op hands its payload over: the scene that applies an AddNodeOp or
// SetPayloadOp stores the op's Payload itself, not a copy, so from then
// on the payload is the scene's and is never mutated — by the op's
// builder least of all. Build a payload, then hand it over. The same
// op may be applied to several scenes (the data service's and an
// in-process mirror's); they share the payload, which ops replace and
// never edit.
type Op interface {
	Kind() OpKind
	// Apply mutates the scene. On success the scene version is bumped by
	// the caller (Scene.ApplyOp).
	apply(s *Scene) error
	// Touches reports the node the op affects, for interest filtering
	// during dataset distribution.
	Touches() NodeID
}

// ApplyOp applies the op and bumps the scene version on success.
func (s *Scene) ApplyOp(op Op) error {
	if op == nil {
		return fmt.Errorf("scene: nil op")
	}
	if err := op.apply(s); err != nil {
		return err
	}
	s.Version++
	return nil
}

// SkipOp changes nothing but the version: it stands in a copy's stream
// for an op the authority committed outside the copy's interest
// (§3.2.5), so the copy's version still counts the authority's. It has
// no wire form of its own; the skip record is the version alone.
type SkipOp struct{}

// Kind implements Op: no kind, so marshal refuses to encode it.
func (SkipOp) Kind() OpKind { return 0 }

// Touches implements Op.
func (SkipOp) Touches() NodeID { return 0 }

func (SkipOp) apply(*Scene) error { return nil }

// AddNodeOp inserts a new node. The ID is allocated by the authoritative
// scene so replicas agree.
type AddNodeOp struct {
	Parent    NodeID
	ID        NodeID
	Name      string
	Transform mathx.Mat4
	Payload   Payload // may be nil (group node); the scene adopts it (see Op)
}

// Kind implements Op.
func (o *AddNodeOp) Kind() OpKind { return OpAddNode }

// Touches implements Op.
func (o *AddNodeOp) Touches() NodeID { return o.ID }

func (o *AddNodeOp) apply(s *Scene) error {
	return s.Attach(o.Parent, &Node{ID: o.ID, Name: o.Name, Transform: o.Transform, Payload: o.Payload})
}

// RemoveNodeOp removes a node and its subtree.
type RemoveNodeOp struct {
	ID NodeID
}

// Kind implements Op.
func (o *RemoveNodeOp) Kind() OpKind { return OpRemoveNode }

// Touches implements Op.
func (o *RemoveNodeOp) Touches() NodeID { return o.ID }

func (o *RemoveNodeOp) apply(s *Scene) error { return s.Remove(o.ID) }

// SetTransformOp replaces a node's local transform — the op behind every
// drag, rotate and avatar movement.
type SetTransformOp struct {
	ID        NodeID
	Transform mathx.Mat4
}

// Kind implements Op.
func (o *SetTransformOp) Kind() OpKind { return OpSetTransform }

// Touches implements Op.
func (o *SetTransformOp) Touches() NodeID { return o.ID }

func (o *SetTransformOp) apply(s *Scene) error { return s.SetTransform(o.ID, o.Transform) }

// SetNameOp renames a node.
type SetNameOp struct {
	ID   NodeID
	Name string
}

// Kind implements Op.
func (o *SetNameOp) Kind() OpKind { return OpSetName }

// Touches implements Op.
func (o *SetNameOp) Touches() NodeID { return o.ID }

func (o *SetNameOp) apply(s *Scene) error {
	n := s.Node(o.ID)
	if n == nil {
		return fmt.Errorf("scene: node %d not found", o.ID)
	}
	n.Name = o.Name
	return nil
}

// SetPayloadOp replaces a node's payload in place — the op behind
// editing a node's geometry (e.g. repainting or swapping a model) without
// disturbing its identity, children or transform.
type SetPayloadOp struct {
	ID      NodeID
	Payload Payload // nil clears the payload (node becomes a group); the scene adopts it (see Op)
}

// Kind implements Op.
func (o *SetPayloadOp) Kind() OpKind { return OpSetPayload }

// Touches implements Op.
func (o *SetPayloadOp) Touches() NodeID { return o.ID }

func (o *SetPayloadOp) apply(s *Scene) error {
	n := s.Node(o.ID)
	if n == nil {
		return fmt.Errorf("scene: node %d not found", o.ID)
	}
	n.Payload = o.Payload
	return nil
}

// Interaction names an operation a node supports. The client GUI
// "interrogates objects for any supported interactions, and reflects this
// in the drop-down menus" (§5.2); this is that interrogation.
type Interaction string

// Interactions the GUI can offer.
const (
	InteractMove   Interaction = "move"
	InteractRotate Interaction = "rotate"
	InteractScale  Interaction = "scale"
	InteractDelete Interaction = "delete"
	InteractRename Interaction = "rename"
	InteractOrbit  Interaction = "orbit-camera-around"
)

// SupportedInteractions inspects a node and reports what the GUI may
// offer for it. Avatars belong to their clients and cannot be deleted or
// renamed by others; the root only supports rename.
func SupportedInteractions(n *Node) []Interaction {
	if n == nil {
		return nil
	}
	if n.ID == RootID {
		return []Interaction{InteractRename}
	}
	if n.Kind() == KindAvatar {
		return []Interaction{InteractMove, InteractRotate, InteractOrbit}
	}
	out := []Interaction{InteractMove, InteractRotate, InteractScale, InteractDelete, InteractRename}
	if n.Payload != nil {
		out = append(out, InteractOrbit)
	}
	return out
}

// InteractionOp builds the op implementing an interaction on a node,
// given the target transform (for move/rotate/scale) or name. It returns
// an error when the node does not support the interaction, mirroring the
// GUI graying out unsupported menu entries.
func InteractionOp(s *Scene, id NodeID, action Interaction, transform mathx.Mat4, name string) (Op, error) {
	n := s.Node(id)
	if n == nil {
		return nil, fmt.Errorf("scene: node %d not found", id)
	}
	supported := false
	for _, a := range SupportedInteractions(n) {
		if a == action {
			supported = true
			break
		}
	}
	if !supported {
		return nil, fmt.Errorf("scene: node %d (%s) does not support %q", id, n.Kind(), action)
	}
	switch action {
	case InteractMove, InteractRotate, InteractScale:
		return &SetTransformOp{ID: id, Transform: transform}, nil
	case InteractDelete:
		return &RemoveNodeOp{ID: id}, nil
	case InteractRename:
		return &SetNameOp{ID: id, Name: name}, nil
	default:
		return nil, fmt.Errorf("scene: interaction %q has no op form", action)
	}
}
