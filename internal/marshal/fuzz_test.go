package marshal

import (
	"bytes"
	"image"
	"math"
	"runtime"
	"testing"

	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
	"repro/internal/raster"
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
// in for. A frame's two halves hold to the decoder too: CheckFrame
// accepts exactly what DecodeFrame does, allocating nothing; PaintAll at
// an offset into a larger cleared buffer puts the decoded frame there
// and nothing else; PaintNearer into a seeded buffer is a depth merge of
// the decoded frame; and PaintCleared takes the decoded frame's drawn
// pixels back to cleared.
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
		checkPaint(t, data)
		// A decoded value and its re-encoding are each a few times the
		// input: a node costs 145 bytes on the wire and a scene.Node, two
		// map entries and a slice slot in memory. A spans frame may add
		// the seven bytes a pixel its header's framebuffer takes.
		most := uint64(64<<10 + 32*len(data))
		if w, h, err := CheckFrame(data); err == nil {
			most += 7 * uint64(w*h)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > most {
			t.Errorf("decoding %d bytes allocated %d", len(data), grew)
		}
	})
}

// checkPaint holds CheckFrame and PaintFrame to DecodeFrame on one input.
func checkPaint(t *testing.T, data []byte) {
	w, h, err := CheckFrame(data)
	fb, decErr := DecodeFrame(data)
	if (err == nil) != (decErr == nil) {
		t.Fatalf("CheckFrame says %v, DecodeFrame %v", err, decErr)
	}
	if err != nil {
		return
	}
	if fb.W != w || fb.H != h {
		t.Fatalf("CheckFrame says %dx%d, DecodeFrame built %dx%d", w, h, fb.W, fb.H)
	}
	if n := testing.AllocsPerRun(2, func() { CheckFrame(data) }); n != 0 && !raceEnabled {
		t.Errorf("CheckFrame allocated %.0f times", n)
	}
	if w*h > 1<<16 {
		return // the header alone may name 8 M pixels; painting it four ways more adds nothing
	}

	big := raster.NewFramebuffer(w+3, h+2)
	if err := PaintFrame(big, data, 2, 1, PaintAll); err != nil {
		t.Fatal(err)
	}
	inner, _ := big.SubTile(image.Rect(2, 1, 2+w, 1+h))
	sameFrame(t, "PaintAll at (2,1)", inner, fb)
	big.BlitTile(raster.NewFramebuffer(w, h), 2, 1)
	sameFrame(t, "PaintAll outside the frame's rectangle", big, raster.NewFramebuffer(w+3, h+2))

	// A seeded buffer: cleared, NaN, -0, ties with the frame, and nearer.
	seeded, want := raster.NewFramebuffer(w, h), raster.NewFramebuffer(w, h)
	for i := range seeded.Depth {
		switch (i*7 + len(data)) % 5 {
		case 1:
			seeded.Depth[i] = float32(math.NaN())
		case 2:
			seeded.Depth[i] = float32(math.Copysign(0, -1))
		case 3:
			seeded.Depth[i] = fb.Depth[i]
		case 4:
			seeded.Depth[i] = -0.5
		}
		seeded.Color[3*i] = uint8(i)
	}
	copy(want.Color, seeded.Color)
	copy(want.Depth, seeded.Depth)
	for i, z := range fb.Depth { // DepthComposite(want, fb)
		if z < want.Depth[i] {
			want.Depth[i] = z
			copy(want.Color[3*i:3*i+3], fb.Color[3*i:])
		}
	}
	if err := PaintFrame(seeded, data, 0, 0, PaintNearer); err != nil {
		t.Fatal(err)
	}
	sameFrame(t, "PaintNearer", seeded, want)

	if err := PaintFrame(fb, data, 0, 0, PaintCleared); err != nil {
		t.Fatal(err)
	}
	sameFrame(t, "PaintCleared", fb, raster.NewFramebuffer(w, h))
}
