// Package renderservice implements RAVE's render service (§3.1.2): a
// background process that replicates scene data from a data service,
// renders on demand for thin clients (off-screen) or a local console
// (on-screen), reports its capacity when interrogated, renders scene
// subsets or framebuffer tiles during workload distribution, and monitors
// its own frame rate for the data service's migration policy.
package renderservice

import (
	"context"
	"errors"
	"fmt"
	"image"
	"io"
	"sync"
	"time"

	"repro/internal/admission"
	"repro/internal/collab"
	"repro/internal/device"
	"repro/internal/follow"
	"repro/internal/geom"
	"repro/internal/imgcodec"
	"repro/internal/marshal"
	"repro/internal/mathx"
	"repro/internal/raster"
	"repro/internal/retry"
	"repro/internal/scene"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Config configures a render service.
type Config struct {
	// Name identifies the service in capacity/load reports and UDDI.
	Name string
	// Device is the modeled hardware profile (capacity reports and
	// simulated timings derive from it).
	Device device.Profile
	// Workers is the rasterizer's parallel band count.
	Workers int
	// Clock drives timing; defaults to the real clock.
	Clock vclock.Clock
	// SimulateDeviceTime, when set, makes render calls sleep for the
	// device model's frame time on the configured clock, so end-to-end
	// simulations reproduce 2004 pacing.
	SimulateDeviceTime bool
	// QueueDepth bounds concurrently admitted render calls (admission
	// control); work beyond it is shed with ErrOverloaded instead of
	// queueing unboundedly. Defaults to DefaultQueueDepth. Background
	// (tile/subset assist) work is capped at half this depth so peer
	// assists cannot starve interactive viewers.
	QueueDepth int
	// Metrics receives the service's telemetry series (admission,
	// render timings, raster work). Defaults to a private registry on
	// the service clock; simulated deployments pass one shared registry
	// so a single snapshot covers the whole fleet.
	Metrics *telemetry.Registry
	// Tracer records render spans; nil disables tracing (every tracer
	// method is nil-safe, so instrumented paths never branch on it).
	Tracer *telemetry.Tracer
}

// targetFPS is the interactive rate a service tries to hold; the
// migration threshold discussion (§3.2.7) is relative to it.
const targetFPS = 10

// Service is a render service hosting any number of render sessions.
// "Multiple render sessions are supported by each render service, so
// multiple users may share available rendering resources."
type Service struct {
	cfg Config
	adm *admission.Gate

	mu       sync.Mutex
	sessions map[string]*Session
}

// New creates a render service.
func New(cfg Config) *Service {
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real{}
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry(cfg.Clock)
	}
	return &Service{
		cfg: cfg,
		// Before any call has completed, a retry-after hint assumes
		// one target-FPS frame per queued call.
		adm:      admission.New(cfg.Name, cfg.QueueDepth, time.Second/targetFPS, cfg.Clock, cfg.Metrics),
		sessions: map[string]*Session{},
	}
}

// Name returns the service name.
func (s *Service) Name() string { return s.cfg.Name }

// Session is one render session: a scene replica plus camera. If several
// users view the same data-service session, they share one Session ("a
// single copy of the data are stored in the render service to save
// resources").
type Session struct {
	name string
	svc  *Service

	mu       sync.Mutex
	scene    *scene.Scene
	camera   raster.Camera
	refcount int

	// Frame statistics for load reports.
	lastFrameTime time.Duration
	framesDrawn   int

	// scratch is the rasterizer's working memory for this replica's
	// frames, sized by the first and reused by every one after.
	scratch raster.Scratch

	// lit holds the lighting record of each mesh payload the replica's
	// last frame or tile drew, so the next one lit under the same model
	// transform copies its colours instead of relighting them. A payload
	// is a sound key because a scene never mutates one it holds (see
	// scene.Payload): a changed mesh arrives as a new payload. After each
	// draw only the payloads it drew keep a record (draws stamps them),
	// and an op or reset that replaces a payload drops its record, so
	// the records keep no replaced payload alive.
	lit   map[*scene.MeshPayload]*litRecord
	draws uint64

	// enc encodes for the session's in-process users (EncodeFrame); a
	// viewer on a socket has its own (ServeClient).
	enc *imgcodec.Adaptive
}

// OpenSession creates (or attaches to) the session replica bootstrapped
// from the given snapshot. The returned session must be released with
// Close.
func (s *Service) OpenSession(name string, snapshot *scene.Scene, cam raster.Camera) (*Session, error) {
	if name == "" {
		return nil, fmt.Errorf("renderservice: session name required")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.sessions[name]; ok {
		sess.mu.Lock()
		sess.refcount++
		sess.mu.Unlock()
		return sess, nil
	}
	if snapshot == nil {
		return nil, fmt.Errorf("renderservice: session %q needs a bootstrap snapshot", name)
	}
	sess := &Session{
		name:     name,
		svc:      s,
		scene:    snapshot.Clone(),
		camera:   cam,
		refcount: 1,
		enc:      imgcodec.NewAdaptive(),
	}
	s.sessions[name] = sess
	return sess, nil
}

// Close releases one reference; the replica is dropped when the last
// user leaves.
func (sess *Session) Close() {
	sess.mu.Lock()
	sess.refcount--
	drop := sess.refcount <= 0
	sess.mu.Unlock()
	if drop {
		sess.svc.mu.Lock()
		delete(sess.svc.sessions, sess.name)
		sess.svc.mu.Unlock()
	}
}

// SessionCount reports live sessions (for UDDI instance listings).
func (s *Service) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// SessionNamed returns the live replica of the named session without
// taking a new reference (the caller must not Close it). With an empty
// name it returns the sole live session, if exactly one exists — the
// common single-session deployment of a local render handle.
func (s *Service) SessionNamed(name string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == "" {
		if len(s.sessions) != 1 {
			return nil, false
		}
		for _, sess := range s.sessions {
			return sess, true
		}
	}
	sess, ok := s.sessions[name]
	return sess, ok
}

// ApplyOp applies one scene update to the replica. A mesh payload the op
// replaces or removes loses its lighting record at once: a replica that
// draws rarely (its viewers idle while an editor reshapes the model)
// would otherwise keep the replaced meshes until its next frame.
func (sess *Session) ApplyOp(op scene.Op) error {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	switch o := op.(type) {
	case *scene.SetPayloadOp:
		sess.forget(sess.scene.Node(o.ID), false)
	case *scene.RemoveNodeOp:
		sess.forget(sess.scene.Node(o.ID), true)
	}
	return sess.scene.ApplyOp(op)
}

// forget drops the lighting record of n's mesh payload and, with
// subtree, those of its descendants' payloads; n may be nil.
func (sess *Session) forget(n *scene.Node, subtree bool) {
	if n == nil {
		return
	}
	if p, ok := n.Payload.(*scene.MeshPayload); ok {
		delete(sess.lit, p)
	}
	if subtree {
		for _, c := range n.Children {
			sess.forget(c, true)
		}
	}
}

// ResetScene replaces the replica with a bootstrap snapshot — the first
// of a subscription, or of a reconnect the data service's op history no
// longer reaches back for — and drops the lighting records of the scene
// it replaces.
func (sess *Session) ResetScene(snapshot *scene.Scene) {
	sess.mu.Lock()
	sess.scene = snapshot.Clone()
	clear(sess.lit)
	sess.mu.Unlock()
}

// retain adds a reference so the replica survives a subscription drop
// (paired with Close).
func (sess *Session) retain() {
	sess.mu.Lock()
	sess.refcount++
	sess.mu.Unlock()
}

// SetCamera updates the shared session camera.
func (sess *Session) SetCamera(cam raster.Camera) {
	sess.mu.Lock()
	sess.camera = cam
	sess.mu.Unlock()
}

// Camera returns the current camera.
func (sess *Session) Camera() raster.Camera {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.camera
}

// Version returns the replica's scene version.
func (sess *Session) Version() uint64 {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.scene.Version
}

// SceneCost returns the replica's total cost (for capacity accounting).
func (sess *Session) SceneCost() scene.Cost {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.scene.TotalCost()
}

// litRecord is a replica's lighting record for one mesh payload and the
// draw that last used it.
type litRecord struct {
	raster.Lighting
	draw uint64
}

// lighting returns p's record for the current draw, made on first use;
// a nil session keeps none.
func (sess *Session) lighting(p *scene.MeshPayload) *raster.Lighting {
	if sess == nil {
		return nil
	}
	rec := sess.lit[p]
	if rec == nil {
		if sess.lit == nil {
			sess.lit = make(map[*scene.MeshPayload]*litRecord)
		}
		rec = new(litRecord)
		sess.lit[p] = rec
	}
	rec.draw = sess.draws
	return &rec.Lighting
}

// draw rasterizes sc under cam into fb — the tile region of a fullW x
// fullH image — and returns the triangles drawn. A node is drawn only if
// its bounds reach the tile's own frustum, so a part of a distributed
// frame sets up only the triangles that can land in it; a tile is still
// the crop of the frame it belongs to, byte for byte. Callers drawing a
// replica hold its mutex and pass it (nil draws sc keeping no state):
// its mesh payloads are lit from the replica's lighting records, and,
// with workers to fork across, the mesh and avatar nodes are drawn as
// raster batches on its scratch, one flushed before each point cloud or
// voxel grid so scene order — and with it every depth tie — is kept.
// Without a replica, or with one worker, meshes are drawn one at a time
// on pooled scratch: a batch holds every mesh's records at once, which
// only scratch that lives with the replica pays for once.
func (s *Service) draw(sc *scene.Scene, cam raster.Camera, fb *raster.Framebuffer, tile image.Rectangle, fullW, fullH int, viewer string, sess *Session) int {
	r := raster.New(fb)
	r.Opts.Workers = s.cfg.Workers
	r.Opts.Tile = tile
	r.Opts.FullW, r.Opts.FullH = fullW, fullH
	r.Opts.Metrics = s.cfg.Metrics
	r.Opts.Service = s.cfg.Name
	if sess != nil {
		sess.draws++
		if s.cfg.Workers >= 2 {
			r.Scratch = &sess.scratch
		}
	}
	frustum, splats := r.Frustum(cam), r.SplatFrustum(cam)
	tris := 0
	var batch []raster.MeshDraw
	flush := func() {
		if len(batch) > 0 {
			r.RenderMeshes(batch, cam)
			tris += r.TrianglesDrawn
			batch = batch[:0]
		}
	}
	add := func(m *geom.Mesh, world mathx.Mat4, lit *raster.Lighting) {
		batch = append(batch, raster.MeshDraw{Mesh: m, Model: world, Lit: lit})
		if r.Scratch == nil {
			flush()
		}
	}
	sc.Walk(func(n *scene.Node, world mathx.Mat4) bool {
		// Off-tile nodes are skipped; children keep their own bounds, so
		// the walk goes on.
		switch p := n.Payload.(type) {
		case *scene.MeshPayload:
			if frustum.IntersectsAABB(p.BoundsLocal().Transform(world)) {
				add(p.Mesh, world, sess.lighting(p))
			}
		case *scene.PointsPayload:
			if frustum.IntersectsAABB(p.BoundsLocal().Transform(world)) {
				flush()
				r.RenderPoints(p.Cloud, world, cam)
			}
		case *scene.VoxelsPayload:
			if splats.IntersectsAABB(p.BoundsLocal().Transform(world)) {
				flush()
				r.RenderVoxels(p.Grid, p.Iso, world, cam)
			}
		case *scene.AvatarPayload:
			if p.User == viewer {
				break
			}
			// Culled on the mesh it draws, which the payload's nominal
			// box does not contain; lit every frame, since the mesh is
			// new every frame.
			if m := collab.AvatarMesh(p.Color); frustum.IntersectsAABB(m.Bounds().Transform(world)) {
				add(m, world, nil)
			}
		}
		return true
	})
	flush()
	if sess != nil {
		for p, rec := range sess.lit {
			if rec.draw != sess.draws {
				delete(sess.lit, p)
			}
		}
	}
	return tris
}

// Frame is a rendered result with its scene version and modeled timing.
type Frame struct {
	FB      *raster.Framebuffer
	Version uint64
	// DeviceTime is the modeled render time on the service's device.
	DeviceTime time.Duration
}

// maxFrameDim bounds either side of a frame a request may name, so a
// size read off a socket cannot drive an arbitrary allocation.
const maxFrameDim = 1 << 13

// Job is one render request. The three shapes the service renders are
// all Jobs: an interactive frame (Session, the whole frame, Interactive),
// a framebuffer-distribution tile (Session, part of the frame) and a
// dataset-distribution subset (Scene under Camera).
type Job struct {
	// Session is the replica to draw under its own camera. Nil draws
	// Scene under Camera without keeping any state.
	Session *Session
	Scene   *scene.Scene
	Camera  raster.Camera
	// Rect is the region of the FullW x FullH frame to render.
	Rect         image.Rectangle
	FullW, FullH int
	// Viewer is the user whose own avatar is hidden.
	Viewer string
	// Interactive marks a user waiting at a client, who may use the whole
	// admission queue; assists for peers are capped at half of it.
	Interactive bool
	// Deadline is the absolute time by which the result is needed: work
	// the service cannot finish by then is refused with ErrOverloaded
	// instead of rendered late. Zero means only the queue bound applies.
	Deadline time.Time
	// Trace is the caller's span context; when valid the service's
	// "render" span joins that trace tree.
	Trace telemetry.SpanContext
}

// Check reports whether the service renders the job's size: either side
// of the frame in 1..8192 and a non-empty region inside it. A job that
// fails it is refused before admission.
func (j Job) Check() error {
	if j.FullW <= 0 || j.FullH <= 0 || j.FullW > maxFrameDim || j.FullH > maxFrameDim {
		return fmt.Errorf("renderservice: bad frame size %dx%d", j.FullW, j.FullH)
	}
	if j.Rect.Empty() || !j.Rect.In(image.Rect(0, 0, j.FullW, j.FullH)) {
		return fmt.Errorf("renderservice: bad tile %v of %dx%d", j.Rect, j.FullW, j.FullH)
	}
	return nil
}

// RenderFrame renders a full frame at w x h for the given viewer (whose
// own avatar is hidden).
func (sess *Session) RenderFrame(w, h int, viewer string) (*Frame, error) {
	return sess.svc.Render(Job{Session: sess, Rect: image.Rect(0, 0, w, h), FullW: w, FullH: h, Viewer: viewer, Interactive: true})
}

// RenderTile renders one tile of a fullW x fullH image — framebuffer
// distribution's assisting role ("renders to an off-screen buffer, which
// it then forwards directly to the requesting render service").
func (sess *Session) RenderTile(rect image.Rectangle, fullW, fullH int) (*Frame, error) {
	return sess.svc.Render(Job{Session: sess, Rect: rect, FullW: fullW, FullH: fullH})
}

// RenderSceneOnce renders an arbitrary scene (typically a distribution
// subset streamed by the data service) without keeping replica state,
// returning the frame+depth buffer for compositing and the modeled
// device time.
func (s *Service) RenderSceneOnce(sc *scene.Scene, cam raster.Camera, w, h int) (*raster.Framebuffer, time.Duration, error) {
	frame, err := s.Render(Job{Scene: sc, Camera: cam, Rect: image.Rect(0, 0, w, h), FullW: w, FullH: h})
	if err != nil {
		return nil, 0, err
	}
	return frame.FB, frame.DeviceTime, nil
}

// Render is the one render body: validate, admit, rasterize, charge the
// modeled device time, release, count — under a traced job's span.
func (s *Service) Render(j Job) (*Frame, error) { return s.renderInto(j, nil) }

// renderInto is Render drawing into fb when it is a cleared buffer of the
// job's size, and into a new one when fb is nil or another size.
func (s *Service) renderInto(j Job, fb *raster.Framebuffer) (frame *Frame, err error) {
	span := s.cfg.Tracer.Child(j.Trace, s.cfg.Name, "render")
	defer func() {
		var ov *ErrOverloaded
		switch {
		case err == nil:
			span.End()
		case errors.As(err, &ov):
			span.EndStatus(telemetry.StatusDeclined)
		default:
			span.EndStatus(telemetry.StatusError)
		}
	}()
	if err := j.Check(); err != nil {
		return nil, err
	}
	release, err := s.adm.Admit(s.cfg.Name, j.Interactive, j.Deadline)
	if err != nil {
		return nil, err
	}
	if fb == nil || fb.W != j.Rect.Dx() || fb.H != j.Rect.Dy() {
		fb = raster.NewFramebuffer(j.Rect.Dx(), j.Rect.Dy())
	}
	frame = &Frame{FB: fb}
	sc, cam := j.Scene, j.Camera
	if sess := j.Session; sess != nil {
		sess.mu.Lock()
		sc, cam, frame.Version = sess.scene, sess.camera, sess.scene.Version
	}
	tris := s.draw(sc, cam, frame.FB, j.Rect, j.FullW, j.FullH, j.Viewer, j.Session)
	dt := s.cfg.Device.OffScreenTime(device.Workload{Triangles: tris, Pixels: j.Rect.Dx() * j.Rect.Dy()})
	frame.DeviceTime = dt
	if sess := j.Session; sess != nil {
		sess.lastFrameTime = dt
		sess.framesDrawn++
		sess.mu.Unlock()
	}
	if s.cfg.SimulateDeviceTime {
		s.cfg.Clock.Sleep(dt)
	}
	release(dt)
	metrics, name := s.cfg.Metrics, s.cfg.Name
	switch {
	case j.Session == nil:
		metrics.Counter(name, "subsets_total", "").Inc()
		metrics.Histogram(name, "render_subset_ns", "").Observe(dt)
	case j.Interactive:
		metrics.Counter(name, "frames_total", "").Inc()
		metrics.Histogram(name, "render_frame_ns", "").Observe(dt)
	default:
		metrics.Counter(name, "tiles_total", "").Inc()
		metrics.Histogram(name, "render_tile_ns", "").Observe(dt)
	}
	return frame, nil
}

// EncodeFrame encodes a rendered frame with the requested codec ("raw",
// "rle", "flate", "delta-rle", "adaptive") on the session's own encoder
// — what one in-process viewer of the session uses; each viewer on a
// socket has an encoder of its own — with the link throughput estimate
// for the adaptive choice.
func (sess *Session) EncodeFrame(f *Frame, codecName string, throughputBps float64) ([]byte, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.enc.Encode(codecName, f.FB.W, f.FB.H, f.FB.Color, throughputBps)
}

// Capacity answers capacity interrogation (§3.2.5) from the device
// profile and current load across sessions.
func (s *Service) Capacity() transport.CapacityReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	work := 0.0
	for _, sess := range s.sessions {
		work += sess.SceneCost().Work()
	}
	return transport.CapacityReport{
		Name:              s.cfg.Name,
		PolysPerSecond:    s.cfg.Device.PolysPerSecond(),
		PointsPerSecond:   s.cfg.Device.PolysPerSecond() * 4,
		VoxelsPerSecond:   s.cfg.Device.PolysPerSecond() * 20,
		TextureMemory:     s.cfg.Device.TextureMemory,
		HardwareVolume:    s.cfg.Device.HardwareVolume,
		CurrentWork:       work,
		TargetFPS:         targetFPS,
		OffscreenHardware: !s.cfg.Device.OffscreenSoftware,
	}
}

// LoadReport summarizes the service's current rendering rate; the data
// service's distributor records it in this service's peer record, where
// the migration policy reads it.
func (s *Service) LoadReport() transport.LoadReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	var worst time.Duration
	work := 0.0
	var texture int64
	for _, sess := range s.sessions {
		sess.mu.Lock()
		if sess.lastFrameTime > worst {
			worst = sess.lastFrameTime
		}
		c := sess.scene.TotalCost()
		work += c.Work()
		texture += c.Bytes
		sess.mu.Unlock()
	}
	fps := 0.0
	if worst > 0 {
		fps = float64(time.Second) / float64(worst)
	}
	return transport.LoadReport{
		Name:        s.cfg.Name,
		FPS:         fps,
		WorkPerSec:  work * fps,
		TextureUsed: texture,
	}
}

// viewer is one ServeClient connection and what its asker owns: the
// hello (who asks, of which session — looked up when a request needs it,
// so a replica may land, or be replaced, while the connection stands),
// the encoder whose one previous frame is the last sent here, which the
// thin client at the other end decodes against, and the framebuffer its
// jobs draw into, kept cleared between them. The session owns only what
// every viewer shares: the scene and the camera.
type viewer struct {
	svc     *Service
	conn    *transport.Conn
	hello   transport.Hello
	enc     *imgcodec.Adaptive
	linkBps float64
	fb      *raster.Framebuffer
}

// session resolves the replica the hello named.
func (v *viewer) session() (*Session, error) {
	v.svc.mu.Lock()
	defer v.svc.mu.Unlock()
	if sess, ok := v.svc.sessions[v.hello.Session]; ok {
		return sess, nil
	}
	return nil, fmt.Errorf("no session %q on render service %s", v.hello.Session, v.svc.cfg.Name)
}

// ServeClient serves one direct socket: camera updates, render requests
// and capacity and telemetry interrogations, until the asker says Bye or
// the socket fails. A viewer (any role but "peer") must name a session
// the service holds; a peer may say hello first and bring the replica, or
// its own scene, later. linkBps is the throughput estimate handed to the
// adaptive codec.
func (s *Service) ServeClient(rw io.ReadWriter, linkBps float64) error {
	conn, hello, err := transport.Accept(rw)
	if err != nil {
		return err
	}
	v := &viewer{svc: s, conn: conn, hello: hello, enc: imgcodec.NewAdaptive(), linkBps: linkBps}
	if _, err := v.session(); err != nil && hello.Role != "peer" {
		conn.Refuse(err)
		return fmt.Errorf("renderservice: %w", err)
	}
	if err := conn.Send(transport.MsgOK, nil); err != nil {
		return err
	}
	for {
		t, payload, err := conn.Receive()
		if err != nil {
			return err
		}
		switch t {
		case transport.MsgBye:
			return nil
		case transport.MsgCameraUpdate:
			var cs transport.CameraState
			if err = transport.DecodeJSON(payload, &cs); err != nil {
				return err
			}
			// The message has no answer to carry a refusal: without the
			// replica the camera is dropped, and the request after it is
			// what gets refused.
			if sess, serr := v.session(); serr == nil {
				sess.SetCamera(CameraFromState(cs))
			}
		case transport.MsgRender:
			err = v.render(payload)
		case transport.MsgCapacityQuery:
			err = conn.SendJSON(transport.MsgCapacityReport, s.Capacity())
		case transport.MsgTelemetryQuery:
			err = conn.SendJSON(transport.MsgTelemetryReport, s.cfg.Metrics.Snapshot())
		default:
			err = conn.Refuse(fmt.Errorf("unexpected message %s", t))
		}
		if err != nil {
			return err
		}
	}
}

// render answers one MsgRender: decode it into the Job it is, render,
// and reply as the hello's role has it — the encoded frame to a viewer,
// version and frame+depth buffer to a peer — or with a refusal. Only a
// broken connection or an undecodable message is returned as an error;
// anything else leaves the connection serving.
func (v *viewer) render(payload []byte) error {
	var req transport.RenderRequest
	if err := transport.DecodeJSON(payload, &req); err != nil {
		return err
	}
	peer := v.hello.Role == "peer"
	job := Job{
		Rect: image.Rect(req.X0, req.Y0, req.X1, req.Y1), FullW: req.FullW, FullH: req.FullH,
		Interactive: !peer,
		Deadline:    transport.DeadlineFromNanos(req.DeadlineNanos),
		Trace:       telemetry.SpanContext{Trace: telemetry.TraceID(req.Trace), Span: telemetry.SpanID(req.Parent)},
	}
	if !peer {
		job.Viewer = v.hello.Name
	}
	if req.Camera != nil {
		// The scene to draw follows immediately.
		snap, err := v.conn.Expect(transport.MsgSceneSnapshot)
		if err != nil {
			return err
		}
		if job.Scene, err = marshal.DecodeScene(snap); err != nil {
			return err
		}
		job.Camera = CameraFromState(*req.Camera)
	} else {
		var err error
		if job.Session, err = v.session(); err != nil {
			return v.conn.Refuse(err)
		}
	}
	frame, err := v.svc.renderInto(job, v.fb)
	if err != nil {
		return v.conn.Refuse(err)
	}
	if peer {
		return v.replyPeer(frame)
	}
	body, err := v.enc.Encode(req.Codec, frame.FB.W, frame.FB.H, frame.FB.Color, v.linkBps)
	// The encoder keeps a copy of its own, so the buffer is cleared —
	// bitwise a new one again — and kept for the next job.
	frame.FB.Clear(0, 0, 0)
	v.fb = frame.FB
	if err != nil {
		return v.conn.Refuse(err)
	}
	return v.conn.Send(transport.MsgFrame, body)
}

// replyPeer sends a peer the frame's version and drawn pixels as spans,
// then clears those runs and keeps the buffer for the next job: every
// pixel outside a run is cleared (that is what a run is), so the reset
// costs what was drawn, not the viewport.
func (v *viewer) replyPeer(frame *Frame) error {
	head := transport.PackVersioned(frame.Version, nil)
	reply := marshal.AppendFrame(head, frame.FB, true)
	if err := marshal.PaintFrame(frame.FB, reply[len(head):], 0, 0, marshal.PaintCleared); err != nil {
		return err
	}
	v.fb = frame.FB
	return v.conn.Send(transport.MsgFrameDepth, reply)
}

// SubscribeOpts tunes the subscription loop's failure handling. The zero
// value disables every timer: no idle watchdog, no load reporting, and
// (for the resilient variant) default retry pacing.
type SubscribeOpts struct {
	// Retry paces reconnection attempts in SubscribeToDataResilient.
	Retry retry.Policy
	// IdleTimeout declares the connection dead when no message (op or
	// camera) arrives within it: a half-open link that neither delivers
	// nor closes. Requires the underlying stream to support read
	// deadlines; zero disables the watchdog.
	IdleTimeout time.Duration
	// ReportInterval is how often to send load reports over the
	// subscription socket (the §3.2.7 migration signal).
	ReportInterval time.Duration
	// Region is this subscriber's locality ("region" or "region/zone"),
	// advertised in the hello so the data service classifies bootstrap
	// snapshots shipped to it as local or cross-region bytes. Empty
	// means local.
	Region string
}

// SubscribeToData runs the data-service subscription protocol on a
// direct socket: send hello, receive the bootstrap snapshot, then apply
// streamed ops and camera updates until the socket closes. It opens (and
// on exit closes) the local session replica, and invokes onReady once the
// bootstrap completes.
func (s *Service) SubscribeToData(rw io.ReadWriter, sessionName string, onReady func(*Session)) error {
	_, err := s.subscribe(context.Background(), transport.NewConn(rw), sessionName, SubscribeOpts{}, onReady)
	return err
}

// heartbeat sends a load report over the subscription socket every
// interval until stop closes (nil) or a send fails (the error; the read
// loop surfaces the broken connection too).
func (s *Service) heartbeat(conn *transport.Conn, every time.Duration, stop <-chan struct{}) error {
	for {
		select {
		case <-stop:
			return nil
		case <-s.cfg.Clock.After(every):
			if err := conn.SendJSON(transport.MsgLoadReport, s.LoadReport()); err != nil {
				return err
			}
		}
	}
}

// replica is the follow.Target behind a subscription: the session's
// scene replica on this service, holding one reference once open.
type replica struct {
	svc  *Service
	name string
	sess *Session // nil until a bootstrap snapshot opens it
}

func (r *replica) Version() uint64 {
	if r.sess == nil {
		return 0
	}
	return r.sess.Version()
}

func (r *replica) Install(sc *scene.Scene) (err error) {
	if r.sess == nil {
		if r.sess, err = r.svc.OpenSession(r.name, sc, raster.DefaultCamera()); err != nil {
			return err
		}
	}
	r.sess.ResetScene(sc) // OpenSession may have found another user's replica already open
	return nil
}

func (r *replica) Apply(op scene.Op) error { return r.sess.ApplyOp(op) }

func (r *replica) SetCamera(cs transport.CameraState) error {
	r.sess.SetCamera(CameraFromState(cs))
	return nil
}

// subscribe follows one subscription stream (follow.Stream) into the
// session's replica. A replica retained from an earlier connection makes
// the hello ask to resume at its version: if the data service's op
// history covers the gap, only the missed ops are replayed. The render
// service's own part of the socket: after the bootstrap it starts the
// heartbeat of load reports, and capacity and telemetry interrogations
// are answered in-line.
func (s *Service) subscribe(ctx context.Context, conn *transport.Conn, sessionName string, opts SubscribeOpts, onReady func(*Session)) (bootstrapped bool, err error) {
	rep := &replica{svc: s, name: sessionName}
	rep.sess, _ = s.OpenSession(sessionName, nil, raster.DefaultCamera()) // fails when there is none to resume from
	stop := make(chan struct{})
	defer func() {
		close(stop)
		if rep.sess != nil {
			rep.sess.Close()
		}
	}()
	st := &follow.Stream{
		Conn:        conn,
		Hello:       transport.Hello{Role: "render-service", Name: s.cfg.Name, Session: sessionName, Region: opts.Region},
		Target:      rep,
		IdleTimeout: opts.IdleTimeout,
		Clock:       s.cfg.Clock,
	}
	st.Ready = func() error {
		if onReady != nil {
			onReady(rep.sess)
		}
		if opts.ReportInterval > 0 {
			go s.heartbeat(conn, opts.ReportInterval, stop) // its error is the read loop's too
		}
		return nil
	}
	st.Hook = func(t transport.MsgType, _ []byte) error {
		switch t {
		case transport.MsgCapacityQuery:
			return conn.SendJSON(transport.MsgCapacityReport, s.Capacity())
		case transport.MsgTelemetryQuery:
			return conn.SendJSON(transport.MsgTelemetryReport, s.cfg.Metrics.Snapshot())
		}
		return nil
	}
	return st.Run(ctx)
}

// ErrConnectionLost reports a subscription stream that ended without an
// explicit Bye: the data service died or the link dropped. Resilient
// subscribers treat it as a reconnect signal, never a clean shutdown.
var ErrConnectionLost = follow.ErrLost

// SubscribeToDataResilient keeps a data-service subscription alive across
// failures (follow.Redial): when the socket breaks, stalls past the idle
// timeout, or the dial fails, it backs off per opts.Retry and reconnects,
// resuming from the replica's version. The replica stays open between
// reconnects so thin clients keep rendering the last good scene. A clean
// shutdown (an explicit Bye) or context cancellation ends the loop; a
// bare EOF is a lost peer (ErrConnectionLost) and reconnects; exhausting
// the retry budget without ever re-bootstrapping returns the last error.
// onReady fires after every successful bootstrap.
func (s *Service) SubscribeToDataResilient(ctx context.Context, dial transport.Dialer, sessionName string, opts SubscribeOpts, onReady func(*Session)) error {
	var held *Session
	defer func() {
		if held != nil {
			held.Close()
		}
	}()
	wrapped := func(sess *Session) {
		if held == nil {
			held = sess
			held.retain()
		}
		if onReady != nil {
			onReady(sess)
		}
	}
	err := follow.Redial(ctx, s.cfg.Clock, opts.Retry, dial, func(rw io.ReadWriter) (bool, error) {
		return s.subscribe(ctx, transport.NewConn(rw), sessionName, opts, wrapped)
	})
	if err != nil {
		return fmt.Errorf("renderservice: subscription to %q: %w", sessionName, err)
	}
	return nil
}

// CameraFromState converts the wire camera to a raster camera.
func CameraFromState(cs transport.CameraState) raster.Camera {
	cam := raster.Camera{
		Eye:    mathx.V3(cs.Eye[0], cs.Eye[1], cs.Eye[2]),
		Target: mathx.V3(cs.Target[0], cs.Target[1], cs.Target[2]),
		Up:     mathx.V3(cs.Up[0], cs.Up[1], cs.Up[2]),
		FovY:   cs.FovY,
		Near:   cs.Near,
		Far:    cs.Far,
	}
	if cam.FovY <= 0 {
		cam.FovY = mathx.Radians(45)
	}
	if cam.Near <= 0 {
		cam.Near = 0.1
	}
	if cam.Far <= cam.Near {
		cam.Far = cam.Near + 1000
	}
	if cam.Up == (mathx.Vec3{}) {
		cam.Up = mathx.V3(0, 1, 0)
	}
	return cam
}

// StateFromCamera converts a raster camera to its wire form.
func StateFromCamera(cam raster.Camera) transport.CameraState {
	return transport.CameraState{
		Eye:    [3]float64{cam.Eye.X, cam.Eye.Y, cam.Eye.Z},
		Target: [3]float64{cam.Target.X, cam.Target.Y, cam.Target.Z},
		Up:     [3]float64{cam.Up.X, cam.Up.Y, cam.Up.Z},
		FovY:   cam.FovY,
		Near:   cam.Near,
		Far:    cam.Far,
	}
}
