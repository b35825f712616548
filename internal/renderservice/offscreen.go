package renderservice

import (
	"fmt"
	"image"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/raster"
	"repro/internal/vclock"
)

// OffscreenQueue reproduces the Java3D off-screen rendering discipline
// the paper measured in §5.4: a render request is issued, the device
// renders, and completion is observed by polling. A sequential caller
// waits for each request before issuing the next and pays the full
// request/poll/readback overhead every time; an interleaved caller keeps
// several requests in flight round-robin, hiding most of the overhead
// behind rendering — the paper's Table 4 experiment, as executable code
// driven by the device model on a (virtual or real) clock.
type OffscreenQueue struct {
	svc   *Service
	clock vclock.Clock

	mu sync.Mutex
	// busyUntil is when the modeled device finishes its current work.
	busyUntil time.Time
	inFlight  int
}

// NewOffscreenQueue returns a queue on the service's device and clock.
func (s *Service) NewOffscreenQueue() *OffscreenQueue {
	return &OffscreenQueue{svc: s, clock: s.cfg.Clock}
}

// OffscreenRequest is one in-flight off-screen render.
type OffscreenRequest struct {
	q    *OffscreenQueue
	sess *Session
	w, h int

	mu       sync.Mutex
	done     bool
	readyAt  time.Time
	result   *Frame
	issueErr error
}

// Submit issues an off-screen render request for the session at w x h.
// It returns immediately (the issue cost is charged to the device
// timeline); the caller polls Done or blocks in Wait.
func (q *OffscreenQueue) Submit(sess *Session, w, h int) (*OffscreenRequest, error) {
	if sess == nil {
		return nil, fmt.Errorf("renderservice: offscreen submit without session")
	}
	if w <= 0 || h <= 0 || w > maxFrameDim || h > maxFrameDim {
		return nil, fmt.Errorf("renderservice: bad offscreen size %dx%d", w, h)
	}
	req := &OffscreenRequest{q: q, sess: sess, w: w, h: h}

	// Render the actual pixels now (the real rasterizer is fast); the
	// *modeled* completion time comes from the device profile and the
	// device's serialized timeline.
	fb := raster.NewFramebuffer(w, h)
	sess.mu.Lock()
	tris := sess.svc.draw(sess.scene, sess.camera, fb, image.Rectangle{}, w, h, "", &sess.scratch)
	version := sess.scene.Version
	sess.mu.Unlock()

	dev := q.svc.cfg.Device
	renderCost := dev.OnScreenTime(device.Workload{Triangles: tris, Pixels: w * h})
	overhead := dev.OffScreenTime(device.Workload{Triangles: tris, Pixels: w * h}) - renderCost
	if overhead < 0 {
		overhead = 0
	}

	q.mu.Lock()
	now := q.clock.Now()
	start := now
	if q.busyUntil.After(start) {
		start = q.busyUntil
	}
	// The device serializes rendering; overhead (readback + completion
	// detection) overlaps with the *next* request's rendering when more
	// than one request is in flight, so it extends this request's ready
	// time but not the device's busy timeline.
	q.busyUntil = start.Add(renderCost)
	readyAt := q.busyUntil.Add(overhead)
	q.inFlight++
	q.mu.Unlock()

	req.mu.Lock()
	req.readyAt = readyAt
	req.result = &Frame{FB: fb, Version: version, DeviceTime: readyAt.Sub(now)}
	req.mu.Unlock()
	return req, nil
}

// Done polls for completion without blocking — the Java3D "test if it
// has completed" call.
func (r *OffscreenRequest) Done() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return true
	}
	if !r.q.clock.Now().Before(r.readyAt) {
		r.finishLocked()
		return true
	}
	return false
}

// Wait blocks on the queue's clock until the request completes and
// returns the frame.
func (r *OffscreenRequest) Wait() (*Frame, error) {
	r.mu.Lock()
	if r.issueErr != nil {
		err := r.issueErr
		r.mu.Unlock()
		return nil, err
	}
	if r.done {
		res := r.result
		r.mu.Unlock()
		return res, nil
	}
	readyAt := r.readyAt
	r.mu.Unlock()

	now := r.q.clock.Now()
	if readyAt.After(now) {
		r.q.clock.Sleep(readyAt.Sub(now))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.done {
		r.finishLocked()
	}
	return r.result, nil
}

// finishLocked marks completion; callers hold r.mu.
func (r *OffscreenRequest) finishLocked() {
	r.done = true
	r.q.mu.Lock()
	r.q.inFlight--
	r.q.mu.Unlock()
}

// InFlight reports outstanding requests.
func (q *OffscreenQueue) InFlight() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.inFlight
}

// RenderBatchSequential renders n frames the sequential way: issue,
// wait, repeat. Returns the frames and the elapsed device-model time.
func (q *OffscreenQueue) RenderBatchSequential(sess *Session, w, h, n int) ([]*Frame, time.Duration, error) {
	start := q.clock.Now()
	var out []*Frame
	for i := 0; i < n; i++ {
		req, err := q.Submit(sess, w, h)
		if err != nil {
			return nil, 0, err
		}
		f, err := req.Wait()
		if err != nil {
			return nil, 0, err
		}
		out = append(out, f)
		// Sequential issue discipline: the next request starts only after
		// this one's completion was observed, so the device idles through
		// each request's overhead. Charge that idle time to the timeline.
		q.mu.Lock()
		if now := q.clock.Now(); q.busyUntil.Before(now) {
			q.busyUntil = now
		}
		q.mu.Unlock()
	}
	return out, q.clock.Now().Sub(start), nil
}

// RenderBatchInterleaved renders n frames with all requests in flight,
// completing round-robin — the paper's interleaved test.
func (q *OffscreenQueue) RenderBatchInterleaved(sess *Session, w, h, n int) ([]*Frame, time.Duration, error) {
	start := q.clock.Now()
	reqs := make([]*OffscreenRequest, n)
	for i := range reqs {
		req, err := q.Submit(sess, w, h)
		if err != nil {
			return nil, 0, err
		}
		reqs[i] = req
	}
	out := make([]*Frame, n)
	for i, req := range reqs {
		f, err := req.Wait()
		if err != nil {
			return nil, 0, err
		}
		out[i] = f
	}
	return out, q.clock.Now().Sub(start), nil
}
