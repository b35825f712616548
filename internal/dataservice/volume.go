package dataservice

import (
	"context"
	"fmt"
	"image"
	"sort"

	"repro/internal/compositor"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
)

// Volume distribution (§6): "We will extend our support and rendering
// services to include voxel and point based methods; these will
// distribute across multiple render services. Subset blocks of the
// volume can be blended, even though they contain transparency, by
// considering their relative distance from the view in the order of
// blending (such as Visapult)." SplitVolumeNode cuts a voxel node into
// slab nodes through ordinary scene ops (so every replica follows), and
// RenderVolumeDistributed renders each slab on its assigned service and
// blends the layers back-to-front — the frame pipeline of frame.go with
// a per-node partitioner and a blending assembler.

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

// slabParts is the volume-distribution partitioner: every assigned node
// is its own part — a one-node scene subset rendered over the whole
// frame on the node's service — carrying the node's world-space
// distance from the camera for the blend order.
func (d *Distributor) slabParts(snap snapshot, w, h int) (*plan, error) {
	if len(snap.assignment) == 0 {
		return nil, fmt.Errorf("dataservice: no distribution planned")
	}
	owner := map[scene.NodeID]string{}
	var ids []scene.NodeID
	for name, nodes := range snap.assignment {
		for _, id := range nodes {
			owner[id] = name
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	cam := renderservice.CameraFromState(d.sess.Camera())
	job := RenderJob{Camera: cam, Rect: image.Rect(0, 0, w, h), FullW: w, FullH: h}
	p := &plan{span: "render-slab"}
	var err error
	d.sess.Scene(func(sc *scene.Scene) {
		for _, id := range ids {
			if job.Scene, err = sc.ExtractSubset([]scene.NodeID{id}); err != nil {
				return
			}
			var world mathx.Mat4
			if world, err = sc.WorldTransform(id); err != nil {
				return
			}
			n := sc.Node(id)
			if n == nil || n.Payload == nil {
				err = fmt.Errorf("dataservice: node %d lost during render", id)
				return
			}
			dist := n.Payload.BoundsLocal().Transform(world).Center().Dist(cam.Eye)
			p.parts = append(p.parts, part{service: owner[id], job: job, nodes: []scene.NodeID{id}, viewDistance: dist})
		}
	})
	return p, err
}

// RenderVolumeDistributed renders each assigned node as its own layer on
// its assigned service and blends the layers back-to-front by each
// node's world-space distance from the camera. opacity applies per layer
// (1 = opaque slabs). Non-volume nodes participate too — they simply
// blend as opaque-ish layers — but the intended use is a scene of volume
// slabs from SplitVolumeNode. A service that fails mid-frame is handled
// as in RenderDistributed: its slabs are re-placed and drawn elsewhere.
func (d *Distributor) RenderVolumeDistributed(w, h int, opacity float64) (*raster.Framebuffer, error) {
	blend := func(w, h int, p *plan) (*raster.Framebuffer, []image.Rectangle, error) {
		parts, err := p.complete()
		if err != nil {
			return nil, nil, err
		}
		layers := make([]compositor.VolumeLayer, len(parts))
		for i, pt := range parts {
			fb, err := pt.tile.Dense() // blending reads every pixel of every layer
			if err != nil {
				return nil, nil, err
			}
			layers[i] = compositor.VolumeLayer{FB: fb, Opacity: opacity, ViewDistance: pt.viewDistance}
		}
		fb, err := compositor.BlendVolume(w, h, layers)
		return fb, nil, err
	}
	fb, _, err := d.renderFrame(context.TODO(), w, h, HedgeConfig{}, d.slabParts, blend)
	return fb, err
}
