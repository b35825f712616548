package marshal

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/scene"
)

// FuzzDecode holds the three decoders that face bytes from a socket or a
// disk to what their callers rely on: arbitrary input is refused or
// decoded, never a panic; a decode allocates in proportion to the bytes
// it was given, whatever their length prefixes claim — but for a spans
// frame, whose header names the framebuffer to build and may cost that
// framebuffer, capped (SocketHandle.Render refuses a header it did not
// ask for before it gets here); and, the format being canonical, whatever
// decodes encodes back to the same bytes. The seeds are the golden
// corpus but for its meshes, big frames and model — too large to mutate
// or minimize usefully — which a small mesh op and the span cases stand
// in for.
func FuzzDecode(f *testing.F) {
	for _, enc := range goldenCorpus(f) {
		if len(enc) <= 1<<10 {
			f.Add(enc)
		}
	}
	mesh, err := AppendOp(nil, &scene.SetPayloadOp{ID: 7, Payload: &scene.MeshPayload{Mesh: genmodel.Sphere(mathx.Vec3{}, 1, 4, 3)}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mesh)
	for _, fb := range spanCases() {
		f.Add(AppendFrame(nil, fb, true))
	}

	decoders := map[string]func([]byte) ([]byte, error){
		"op": func(b []byte) ([]byte, error) {
			op, err := DecodeOp(b)
			if err != nil {
				return nil, err
			}
			return AppendOp(nil, op)
		},
		"scene": func(b []byte) ([]byte, error) {
			s, err := DecodeScene(b)
			if err != nil {
				return nil, err
			}
			return AppendScene(nil, s)
		},
		"frame": func(b []byte) ([]byte, error) {
			fb, err := DecodeFrame(b)
			if err != nil {
				return nil, err
			}
			return AppendFrame(nil, fb, b[8] == frameSpans), nil
		},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for name, roundTrip := range decoders {
			if back, err := roundTrip(data); err == nil && !bytes.Equal(back, data) {
				t.Errorf("%s decoder accepted %d bytes that encode back differently", name, len(data))
			}
		}
		runtime.ReadMemStats(&after)
		// A decoded value and its re-encoding are each a few times the
		// input: a node costs 145 bytes on the wire and a scene.Node, two
		// map entries and a slice slot in memory. A spans frame may add
		// the seven bytes a pixel its header's framebuffer takes.
		most := uint64(64<<10 + 32*len(data))
		if w, h, err := FrameDims(data); err == nil && len(data) > 8 && data[8] == frameSpans {
			most += 7 * uint64(min(w*h, maxSpanFramePixels))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > most {
			t.Errorf("decoding %d bytes allocated %d", len(data), grew)
		}
	})
}
