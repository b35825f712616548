package main

import (
	"image"
	"time"

	"repro/internal/client"
	"repro/internal/imgcodec"
	"repro/internal/raster"
	"repro/internal/renderservice"
	"repro/internal/scene"
	"repro/internal/transport"
)

const (
	thinW, thinH = 400, 400
	thinCodec    = "delta-rle"
	thinUser     = "bench-pda"
	thinWorkers  = 2
	thinOps      = 120
)

// thinOrbit is the paper's PDA path: one thin client on one render
// service, moving the camera and pulling an encoded frame per op.
type thinOrbit struct {
	rig  *rig
	thin *client.Thin
	cams []raster.Camera

	// Traced runs only.
	snapshot *scene.Scene
	shadow   *renderservice.Session
	link     *echoLink
	prevEnc  []byte
	prevDec  []byte
}

func newThinOrbit(seed uint64, ops int) (*thinOrbit, error) {
	if ops <= 0 {
		ops = thinOps
	}
	r, err := newRig(1, thinWorkers)
	if err != nil {
		return nil, err
	}
	w := &thinOrbit{rig: r, cams: orbit(r.base, seed, ops)}
	if w.thin, err = r.dialThin(0, thinUser); err != nil {
		r.close()
		return nil, err
	}
	return w, nil
}

func (w *thinOrbit) ops() int { return len(w.cams) }

func (w *thinOrbit) do(i int) opResult {
	if err := w.thin.SetCamera(w.cams[i]); err != nil {
		return opResult{err: err}
	}
	fb, err := w.thin.RequestFrame(thinW, thinH, thinCodec)
	return opResult{frame: fb, err: err}
}

func (w *thinOrbit) view(i int) (raster.Camera, int, int, bool) {
	return w.cams[i], thinW, thinH, true
}

func (w *thinOrbit) allowedDiff() int { return 0 }

func (w *thinOrbit) endBlock() error { return nil }

func (w *thinOrbit) checkBlock(*renderservice.Service) (uint64, error) { return 0, nil }

func (w *thinOrbit) deployment() *rig { return w.rig }

func (w *thinOrbit) startTrace() error {
	var err error
	w.snapshot = w.rig.sess.Snapshot()
	if _, w.shadow, err = shadowService("shadow-0", thinWorkers, w.snapshot, w.rig.base); err != nil {
		return err
	}
	w.link, err = newEchoLink()
	return err
}

// replay walks the frame's path again layer by layer: render (with the
// rasterizer alone as its child), encode (imgcodec alone as its
// child), the encoded frame over a socket, and the client's decode.
// Every step runs on the generator goroutine, as the real path's steps
// run one after another, so the accounted time is their plain sum.
func (w *thinOrbit) replay(i int, _ opResult, t *tracer, root int) time.Duration {
	var accounted time.Duration
	cam := w.cams[i]
	w.shadow.SetCamera(cam)

	var frame *renderservice.Frame
	id, d := t.run(root, "renderservice", "render_frame", func() {
		frame, _ = w.shadow.RenderFrame(thinW, thinH, thinUser)
	})
	accounted += d
	if frame == nil {
		return accounted
	}
	fb := raster.NewFramebuffer(thinW, thinH)
	var tris int
	t.run(id, "raster", "render", func() {
		tris = rasterScene(w.snapshot, cam, fb, image.Rectangle{}, thinW, thinH, thinWorkers)
	})
	t.count("raster.triangles_per_op", float64(tris))
	t.count("raster.pixels_per_op", float64(fb.CoveredPixels()))

	var enc []byte
	id, d = t.run(root, "renderservice", "encode", func() {
		enc, _ = w.shadow.EncodeFrame(frame, thinCodec, linkBps)
	})
	accounted += d
	t.run(id, "imgcodec", "encode", func() {
		imgcodec.Encode(imgcodec.DeltaRLE, thinW, thinH, frame.FB.Color, w.prevEnc)
	})
	w.prevEnc = append(w.prevEnc[:0], frame.FB.Color...)
	t.count("imgcodec.bytes_per_frame", float64(len(enc)))
	t.count("transport.bytes_per_op", float64(len(enc)))

	_, d = t.run(root, "transport", "frame_rtt", func() {
		w.link.roundTrip(transport.MsgFrame, enc)
	})
	accounted += d

	// The client decodes against the frame it decoded last, then copies
	// the pixels into a framebuffer.
	var decoded []byte
	id, d = t.run(root, "client", "decode", func() {
		_, fw, fh, pixels, err := imgcodec.Decode(enc, w.prevDec)
		if err != nil {
			return
		}
		decoded = pixels
		out := raster.NewFramebuffer(fw, fh)
		copy(out.Color, pixels)
	})
	accounted += d
	t.run(id, "imgcodec", "decode", func() {
		imgcodec.Decode(enc, w.prevDec)
	})
	w.prevDec = decoded
	return accounted
}

func (w *thinOrbit) close() error {
	if w.link != nil {
		w.link.close()
	}
	err := w.thin.Close()
	w.rig.close()
	return err
}
