package dataservice

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/scene"
)

// Volume distribution (§6): "We will extend our support and rendering
// services to include voxel and point based methods; these will
// distribute across multiple render services. Subset blocks of the
// volume can be blended, even though they contain transparency, by
// considering their relative distance from the view in the order of
// blending (such as Visapult)." SplitVolumeNode cuts a voxel node into
// slab nodes through ordinary scene ops (so every replica follows), and a
// Slabs frame (Distributor.Render, frame.go) draws each slab on its
// assigned service and blends the layers back to front. Non-volume nodes
// take part too, as layers of their own.

// SplitVolumeNode replaces a voxel node with n slab children under a new
// group node carrying the original transform. The change is applied as
// regular session updates, so subscribers and the audit trail see it.
// Returns the IDs of the slab nodes.
func (sess *Session) SplitVolumeNode(id scene.NodeID, n int) ([]scene.NodeID, error) {
	var vp *scene.VoxelsPayload
	var name string
	var tr mathx.Mat4
	var parent scene.NodeID
	sess.Scene(func(sc *scene.Scene) {
		if node := sc.Node(id); node != nil {
			if p, ok := node.Payload.(*scene.VoxelsPayload); ok {
				vp = p
				name = node.Name
				tr = node.Transform
				parent = sc.Parent(id)
			}
		}
	})
	if vp == nil {
		return nil, fmt.Errorf("dataservice: node %d is not a voxel payload", id)
	}
	slabs := vp.Grid.SplitSlabs(n)
	if len(slabs) < 2 {
		return nil, fmt.Errorf("dataservice: volume too thin to split into %d slabs", n)
	}

	// Group node keeps the original orientation.
	groupID := sess.AllocID()
	err := sess.ApplyUpdate(&scene.AddNodeOp{
		Parent: parent, ID: groupID, Name: name + "-slabs", Transform: tr,
	}, "")
	if err != nil {
		return nil, err
	}
	var ids []scene.NodeID
	for i, slab := range slabs {
		slabID := sess.AllocID()
		err := sess.ApplyUpdate(&scene.AddNodeOp{
			Parent:    groupID,
			ID:        slabID,
			Name:      fmt.Sprintf("%s-slab-%d", name, i),
			Transform: mathx.Identity(),
			Payload:   &scene.VoxelsPayload{Grid: slab, Iso: vp.Iso},
		}, "")
		if err != nil {
			return nil, err
		}
		ids = append(ids, slabID)
	}
	if err := sess.ApplyUpdate(&scene.RemoveNodeOp{ID: id}, ""); err != nil {
		return nil, err
	}
	return ids, nil
}
