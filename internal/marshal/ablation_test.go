package marshal

import (
	"io"
	"testing"

	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/scene"
)

// The paper's two marshalling ablations, each a pair nothing else in the
// repository times: direct vs introspection scene marshalling (§5.5, the
// stated bootstrap bottleneck) and direct vs per-pixel frame marshalling
// (§5.1, what the PDA could not afford).
//
//	go test ./internal/marshal -run '^$' -bench . -benchmem

func benchSceneMarshal(b *testing.B, write func(io.Writer, *scene.Scene) error) {
	s := scene.New()
	err := s.ApplyOp(&scene.AddNodeOp{
		Parent: scene.RootID, ID: s.AllocID(), Name: "m", Transform: mathx.Identity(),
		Payload: &scene.MeshPayload{Mesh: genmodel.Galleon(20000)},
	})
	if err != nil {
		b.Fatal(err)
	}
	var size int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cw CountWriter
		if err := write(&cw, s); err != nil {
			b.Fatal(err)
		}
		size = cw.N
	}
	b.SetBytes(size)
}

func BenchmarkMarshalSceneDirect(b *testing.B)        { benchSceneMarshal(b, WriteScene) }
func BenchmarkMarshalSceneIntrospection(b *testing.B) { benchSceneMarshal(b, ReflectWriteScene) }

func benchPixelMarshal(b *testing.B, encode func(*raster.Framebuffer) []byte) {
	fb := raster.NewFramebuffer(200, 200)
	b.SetBytes(int64(len(fb.Color)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := encode(fb); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkPixelMarshalDirect(b *testing.B)   { benchPixelMarshal(b, EncodeFrameDirect) }
func BenchmarkPixelMarshalPerPixel(b *testing.B) { benchPixelMarshal(b, EncodeFramePerPixel) }
