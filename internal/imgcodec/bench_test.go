package imgcodec

import (
	"math"
	"testing"

	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
)

// orbitFrames renders two consecutive frames of the thin-client
// benchmark's orbit: Elle at the paper's 50 k triangles in eight pieces,
// framed as bench/rig.go frames it, at 400x400, the second frame one
// orbit step (a 120th of a turn) after the first.
func orbitFrames(tb testing.TB) (prev, frame []byte) {
	tb.Helper()
	mesh := genmodel.Elle(genmodel.PaperElleTriangles)
	base := raster.DefaultCamera().FitToBounds(mesh.Bounds(), mathx.V3(0.3, 0.2, 1))
	var draws []raster.MeshDraw
	for _, piece := range mesh.SplitSpatially(8) {
		draws = append(draws, raster.MeshDraw{Mesh: piece, Model: mathx.Identity()})
	}
	render := func(yaw float64) []byte {
		fb := raster.NewFramebuffer(400, 400)
		raster.New(fb).RenderMeshes(draws, base.Orbit(yaw, 0))
		return fb.Color
	}
	return render(0), render(2 * math.Pi / 120)
}

// BenchmarkDeltaRLE encodes a thin client's delta-rle frame against the
// one before it and decodes it back, so the codec's cost can be measured
// without bench/:
//
//	go test ./internal/imgcodec -run '^$' -bench DeltaRLE -benchmem
func BenchmarkDeltaRLE(b *testing.B) {
	prev, frame := orbitFrames(b)
	enc, err := Encode(DeltaRLE, 400, 400, frame, prev)
	if err != nil || Codec(enc[0]) != DeltaRLE {
		b.Fatalf("encode: %v", err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc, _ = Encode(DeltaRLE, 400, 400, frame, prev)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, _, _, err := Decode(enc, prev); err != nil {
				b.Fatal(err)
			}
		}
	})
}
