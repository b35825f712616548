package renderservice

import (
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/scene"
)

// quad is a 4x4 square in the z = 0 plane, facing +z, in one colour.
func quad(c mathx.Vec3) *geom.Mesh {
	m := &geom.Mesh{
		Positions: []mathx.Vec3{mathx.V3(-2, -2, 0), mathx.V3(2, -2, 0), mathx.V3(2, 2, 0), mathx.V3(-2, 2, 0)},
		Indices:   []uint32{0, 1, 2, 0, 2, 3},
	}
	m.SetUniformColor(c)
	return m
}

// batchScene mixes every payload kind, with ties across them: the
// camera looks straight down -z at the z = 0 plane, where a red quad, a
// point cloud, a one-layer voxel grid and a blue quad all lie, so every
// pixel they share is a depth tie the node drawn first wins. A galleon
// and bob's avatar overlap them from in front, and the meshes before the
// cloud and after the grid are each enough to fork.
func batchScene(t *testing.T) (*scene.Scene, raster.Camera) {
	rng := rand.New(rand.NewSource(26))
	cloud := &geom.PointCloud{}
	for i := 0; i < 300; i++ {
		cloud.Points = append(cloud.Points, mathx.V3(rng.Float64()*4-2, rng.Float64()*4-2, 0))
		cloud.Colors = append(cloud.Colors, mathx.V3(0, 1, 0))
	}
	grid := geom.NewVoxelGrid(8, 8, 1, mathx.V3(-1.5, -1.5, 0), 0.4)
	for i := range grid.Data {
		grid.Data[i] = float32(i%5) - 1
	}
	ship := genmodel.Galleon(4000)
	s := scene.New()
	addNodes(t, s,
		node{"ship", mathx.Translate(mathx.V3(-1, 0.5, 1)).Mul(mathx.UniformScale(2.5 / ship.Bounds().Diagonal())), &scene.MeshPayload{Mesh: ship}},
		node{"red", mathx.Identity(), &scene.MeshPayload{Mesh: quad(mathx.V3(1, 0, 0))}},
		node{"cloud", mathx.Identity(), &scene.PointsPayload{Cloud: cloud}},
		node{"volume", mathx.Identity(), &scene.VoxelsPayload{Grid: grid, Iso: 0}},
		node{"blue", mathx.Identity(), &scene.MeshPayload{Mesh: quad(mathx.V3(0, 0, 1))}},
		node{"avatar:bob", mathx.Translate(mathx.V3(1.2, -1, 1)), &scene.AvatarPayload{User: "bob", Color: mathx.V3(1, 1, 0)}},
		node{"ship-2", mathx.Translate(mathx.V3(1, 1, 0.5)).Mul(mathx.UniformScale(2 / ship.Bounds().Diagonal())), &scene.MeshPayload{Mesh: ship}},
	)
	cam := raster.DefaultCamera()
	cam.Eye = mathx.V3(0, 0, 6)
	return s, cam
}

// A replica's frame draws its mesh and avatar nodes as raster batches,
// flushed before each point cloud and voxel grid; a job with no replica
// draws them one at a time. Scene order decides every tie above, so the
// two must agree on every colour byte and depth bit, and on the charge.
func TestSessionBatchEqualsSceneOnce(t *testing.T) {
	const w, h = 120, 90
	sc, cam := batchScene(t)
	for _, workers := range []int{2, 3, 5} {
		svc := New(Config{Name: "batch", Device: device.CentrinoLaptop, Workers: workers})
		want, wantTime, err := svc.RenderSceneOnce(sc, cam, w, h)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := svc.OpenSession("s", sc, cam)
		if err != nil {
			t.Fatal(err)
		}
		for frame := 0; frame < 2; frame++ { // the second on the scratch the first grew
			got, err := sess.RenderFrame(w, h, "alice")
			if err != nil {
				t.Fatal(err)
			}
			if i := firstDiff(got.FB, want); i >= 0 {
				t.Fatalf("Workers=%d frame %d: the batched frame differs from the scene drawn mesh by mesh at pixel %d", workers, frame, i)
			}
			if got.DeviceTime != wantTime {
				t.Errorf("Workers=%d frame %d: charged %v, mesh by mesh %v", workers, frame, got.DeviceTime, wantTime)
			}
		}
		sess.Close()
	}
}
