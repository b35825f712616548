package marshal

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/scene"
)

// updateGolden rewrites testdata/wire.sha256 from this tree's encoders.
// The checked-in file was generated at the commit before the codec moved
// onto byte slices, and its two depth-frame lines again when depth frames
// became spans; regenerating it is a wire-format change.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/wire.sha256")

const goldenPath = "testdata/wire.sha256"

// goldenCorpus is the fixed set of values whose encodings pin the wire
// format: the bench's 50 k-triangle Elle scene in eight parts, one op of
// each kind carrying each payload kind, a 64×48 frame with every third
// pixel drawn with and without its depth, and one with a few short runs.
// It goes through the io.Writer entry points, which exist on both sides
// of the codec rewrite.
func goldenCorpus(t testing.TB) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	put := func(name string, write func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = buf.Bytes()
	}

	elle := scene.New()
	for i, piece := range genmodel.Elle(genmodel.PaperElleTriangles).SplitSpatially(8) {
		err := elle.ApplyOp(&scene.AddNodeOp{
			Parent: scene.RootID, ID: elle.AllocID(), Name: fmt.Sprintf("elle-part-%d", i),
			Transform: mathx.Identity(), Payload: &scene.MeshPayload{Mesh: piece},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	put("scene/elle-50k", func(b *bytes.Buffer) error { return WriteScene(b, elle) })
	put("scene/empty", func(b *bytes.Buffer) error { return WriteScene(b, scene.New()) })

	mesh := genmodel.Galleon(600)
	mesh.SetUniformColor(mathx.V3(0.6, 0.4, 0.2))
	cloud := &geom.PointCloud{
		Points: []mathx.Vec3{mathx.V3(1, 2, 3), mathx.V3(4, 5, 6), mathx.V3(-7, 8, -9)},
		Colors: []mathx.Vec3{mathx.V3(1, 0, 0), mathx.V3(0, 1, 0), mathx.V3(0, 0, 1)},
	}
	grid := geom.NewVoxelGrid(4, 3, 2, mathx.V3(-1, -1, -1), 0.5)
	for i := range grid.Data {
		grid.Data[i] = float32(i) * 0.25
	}
	tr := mathx.Translate(mathx.V3(1, -2, 3)).Mul(mathx.RotateY(0.3))
	for name, op := range map[string]scene.Op{
		"op/add-group":   &scene.AddNodeOp{Parent: 1, ID: 6, Name: "g", Transform: mathx.Identity()},
		"op/add-mesh":    &scene.AddNodeOp{Parent: 1, ID: 7, Name: "ship", Transform: tr, Payload: &scene.MeshPayload{Mesh: mesh}},
		"op/add-avatar":  &scene.AddNodeOp{Parent: 6, ID: 8, Name: "ava", Transform: tr, Payload: &scene.AvatarPayload{User: "desktop-ρ", Color: mathx.V3(1, 1, 0)}},
		"op/remove":      &scene.RemoveNodeOp{ID: 7},
		"op/transform":   &scene.SetTransformOp{ID: 6, Transform: tr},
		"op/name":        &scene.SetNameOp{ID: 6, Name: "renamed"},
		"op/set-mesh":    &scene.SetPayloadOp{ID: 7, Payload: &scene.MeshPayload{Mesh: mesh}},
		"op/set-points":  &scene.SetPayloadOp{ID: 7, Payload: &scene.PointsPayload{Cloud: cloud}},
		"op/set-voxels":  &scene.SetPayloadOp{ID: 7, Payload: &scene.VoxelsPayload{Grid: grid, Iso: 0.5}},
		"op/set-avatar":  &scene.SetPayloadOp{ID: 7, Payload: &scene.AvatarPayload{User: "pda", Color: mathx.V3(0, 1, 1)}},
		"op/set-cleared": &scene.SetPayloadOp{ID: 7},
	} {
		put(name, func(b *bytes.Buffer) error { return WriteOp(b, op) })
	}

	fb := raster.NewFramebuffer(64, 48)
	for y := 0; y < fb.H; y++ {
		for x := 0; x < fb.W; x += 3 {
			fb.Plot(x, y, float32(x-y)/64, uint8(x*4), uint8(y*5), uint8(x^y))
		}
	}
	put("frame/64x48-depth", func(b *bytes.Buffer) error { return WriteFrame(b, fb, true) })
	put("frame/64x48-colour", func(b *bytes.Buffer) error { return WriteFrame(b, fb, false) })
	// A run inside a row, one across a row's end, a NaN depth, a colour
	// with no depth beside a drawn pixel, and the last pixel alone.
	spans := raster.NewFramebuffer(64, 48)
	for i := 200; i < 217; i++ {
		spans.Plot(i%64, i/64, float32(i)/512, uint8(i), 9, 0)
	}
	for i := 20*64 - 5; i < 20*64+4; i++ {
		spans.Plot(i%64, i/64, -0.5, 0, uint8(i), 200)
	}
	spans.Depth[30*64+7] = float32(math.NaN())
	spans.Plot(9, 30, 0.125, 1, 2, 3)
	spans.Set(10, 30, 0, 0, 77)
	spans.Plot(63, 47, 0, 255, 255, 255)
	put("frame/64x48-spans", func(b *bytes.Buffer) error { return WriteFrame(b, spans, true) })
	return out
}

// TestGoldenWire is the "wire unchanged" promise: every corpus encoding
// hashes to what the per-element bufio codec produced for it.
func TestGoldenWire(t *testing.T) {
	corpus := goldenCorpus(t)
	names := make([]string, 0, len(corpus))
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	var got strings.Builder
	for _, name := range names {
		sum := sha256.Sum256(corpus[name])
		fmt.Fprintf(&got, "%s  %d  %s\n", hex.EncodeToString(sum[:]), len(corpus[name]), name)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("wire encoding changed:\n--- got\n%s--- want\n%s", got.String(), want)
	}
}
