package renderservice

import (
	"fmt"
	"image"
	"runtime"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/scene"
)

// nodeNamed is the node of s with the given name, or nil.
func nodeNamed(s *scene.Scene, name string) *scene.Node {
	var found *scene.Node
	s.Walk(func(n *scene.Node, _ mathx.Mat4) bool {
		if n.Name == name {
			found = n
		}
		return true
	})
	return found
}

// waitCollected runs the collector until the finalizer that closes
// collected has run.
func waitCollected(t *testing.T, collected <-chan struct{}, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("%s is still reachable", what)
			}
		}
	}
}

// A replica keeps a lighting record per mesh payload it draws, so its
// next frame copies colours its last one lit. After each op the replica's
// frame and tile must still be the ones a stateless job draws from its
// scene; after a frame the replica holds records for the payloads that
// frame drew and for no other; and a payload an op replaces is let go at
// once, before the replica draws again.
func TestReplicaLightingRecords(t *testing.T) {
	const w, h = 120, 90
	// The corner tile comes last and culls some of the meshes.
	tiles := []image.Rectangle{image.Rect(30, 20, 100, 70), image.Rect(0, 60, 40, 90)}
	for _, workers := range []int{1, 2, 5} {
		sc, cam := batchScene(t)
		svc := New(Config{Name: "lit", Device: device.CentrinoLaptop, Workers: workers})
		sess, err := svc.OpenSession("s", sc, cam)
		if err != nil {
			t.Fatal(err)
		}
		replaced := make(chan struct{})
		steps := []struct {
			name string
			op   func(s *scene.Scene) scene.Op
		}{
			{"warm", nil},
			{"set-transform", func(s *scene.Scene) scene.Op {
				n := nodeNamed(s, "ship")
				return &scene.SetTransformOp{ID: n.ID, Transform: mathx.Translate(mathx.V3(0.2, -0.2, 0.3)).Mul(mathx.RotateY(0.6)).Mul(n.Transform)}
			}},
			{"set-payload", func(s *scene.Scene) scene.Op {
				n := nodeNamed(s, "red")
				runtime.SetFinalizer(n.Payload.(*scene.MeshPayload), func(*scene.MeshPayload) { close(replaced) })
				return &scene.SetPayloadOp{ID: n.ID, Payload: &scene.MeshPayload{Mesh: quad(mathx.V3(0, 1, 1))}}
			}},
			{"remove-node", func(s *scene.Scene) scene.Op { return &scene.RemoveNodeOp{ID: nodeNamed(s, "blue").ID} }},
		}
		for _, st := range steps {
			where := fmt.Sprintf("Workers=%d %s", workers, st.name)
			if st.op != nil {
				if err := sess.ApplyOp(st.op(sess.scene)); err != nil {
					t.Fatalf("%s: %v", where, err)
				}
			}
			if st.name == "set-payload" {
				waitCollected(t, replaced, where+": the replaced payload")
			}
			want, _, err := svc.RenderSceneOnce(sess.scene, cam, w, h)
			if err != nil {
				t.Fatal(err)
			}
			for frame := 0; frame < 2; frame++ {
				got, err := sess.RenderFrame(w, h, "alice")
				if err != nil {
					t.Fatal(err)
				}
				if i := firstDiff(got.FB, want); i >= 0 {
					t.Fatalf("%s frame %d: the replica's frame differs from its scene drawn once at pixel %d", where, frame, i)
				}
			}
			// Every mesh is in the frame.
			meshes := map[*scene.MeshPayload]bool{}
			sess.scene.Walk(func(n *scene.Node, _ mathx.Mat4) bool {
				if p, ok := n.Payload.(*scene.MeshPayload); ok {
					meshes[p] = true
				}
				return true
			})
			if len(sess.lit) != len(meshes) {
				t.Errorf("%s: %d lighting records after a frame that drew %d mesh payloads", where, len(sess.lit), len(meshes))
			}
			for p := range sess.lit {
				if !meshes[p] {
					t.Errorf("%s: a record for a payload the frame did not draw", where)
				}
			}
			for _, tile := range tiles {
				got, err := sess.RenderTile(tile, w, h)
				if err != nil {
					t.Fatal(err)
				}
				crop, err := want.SubTile(tile)
				if err != nil {
					t.Fatal(err)
				}
				if i := firstDiff(got.FB, crop); i >= 0 {
					t.Fatalf("%s tile %v: the replica's tile differs from the crop of its scene drawn once at pixel %d", where, tile, i)
				}
			}
			r := raster.New(raster.NewFramebuffer(tiles[1].Dx(), tiles[1].Dy()))
			r.Opts.Tile, r.Opts.FullW, r.Opts.FullH = tiles[1], w, h
			frustum, inTile := r.Frustum(cam), 0
			sess.scene.Walk(func(n *scene.Node, world mathx.Mat4) bool {
				if p, ok := n.Payload.(*scene.MeshPayload); ok && frustum.IntersectsAABB(p.BoundsLocal().Transform(world)) {
					inTile++
					if sess.lit[p] == nil {
						t.Errorf("%s: no lighting record for a mesh the corner tile drew", where)
					}
				}
				return true
			})
			if len(sess.lit) != inTile || inTile == len(meshes) {
				t.Errorf("%s: %d lighting records after a tile that drew %d of %d meshes", where, len(sess.lit), inTile, len(meshes))
			}
		}
		sess.ResetScene(sc)
		if len(sess.lit) != 0 {
			t.Errorf("Workers=%d: %d lighting records kept past a reset", workers, len(sess.lit))
		}
		sess.Close()
	}
}
