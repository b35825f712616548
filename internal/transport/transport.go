// Package transport implements the length-prefixed binary socket protocol
// RAVE services use for bulk traffic. The paper is explicit about the
// split (§4.3): SOAP is only used for discovery, status interrogation and
// subscription, "then back off from SOAP and use direct socket
// communication to send binary information". Conn is that direct socket.
package transport

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// MsgType tags a protocol message.
type MsgType uint16

// Protocol messages. A retired message's number stays a gap, so every
// surviving type keeps its wire value.
const (
	// MsgHello opens a socket session; payload: Hello (JSON).
	MsgHello MsgType = iota + 1
	// MsgOK acknowledges; payload optional.
	MsgOK
	// MsgError refuses a request with an explanatory message; Conn.Refuse
	// writes it and Conn.Expect reads it back as a *Refusal.
	MsgError
	// MsgSceneSnapshot carries a full marshalled scene.
	MsgSceneSnapshot
	// MsgSceneOp carries one marshalled scene update op.
	MsgSceneOp
	// MsgCameraUpdate carries a CameraState (JSON).
	MsgCameraUpdate
	_ // 7: the thin client's own frame request, now MsgRender
	// MsgFrame answers a thin client's MsgRender: an imgcodec-encoded
	// colour frame.
	MsgFrame
	// MsgFrameDepth answers a peer's MsgRender: the scene version the
	// pixels show (PackVersioned framing; 0 for a scene the peer sent
	// along) followed by the marshalled frame+depth buffer, for
	// compositing.
	MsgFrameDepth
	_ // 10: the tile assignment, now MsgRender
	_ // 11: the tile header that preceded a tile's MsgFrameDepth
	// MsgCapacityQuery interrogates a render service's capacity.
	MsgCapacityQuery
	// MsgCapacityReport answers with a CapacityReport (JSON).
	MsgCapacityReport
	// MsgLoadReport is a render service's periodic load report to the
	// data service (JSON LoadReport).
	MsgLoadReport
	_ // 15: the subset assignment, now MsgRender
	// MsgBye closes the session cleanly.
	MsgBye
	// MsgSetInterest registers a subscriber's dataset-distribution
	// interest set with the data service (JSON SetInterest).
	MsgSetInterest
	// MsgSceneOpVer carries one marshalled scene op prefixed with the
	// authoritative scene version it produced (PackVersioned framing), so
	// replicas detect dropped updates and resynchronize.
	MsgSceneOpVer
	// MsgVersionQuery asks the data service for the session's current
	// scene version; payload empty.
	MsgVersionQuery
	// MsgVersionReport answers with a VersionReport (JSON).
	MsgVersionReport
	// MsgResyncRequest asks the data service for a fresh bootstrap
	// snapshot after a detected update gap; the service replies with a
	// MsgSceneSnapshot.
	MsgResyncRequest
	// MsgStandbyAck is a hot-standby replica's acknowledgement that it
	// has durably applied the op stream up to a version (JSON
	// VersionReport). The primary tracks acks per standby so operators
	// can see replication lag before deciding a failover is safe.
	MsgStandbyAck
	// MsgResumeOK accepts a resume-at-version subscription (Hello with
	// SinceVersion set): the service's op history covers the gap, so
	// instead of a full MsgSceneSnapshot it replies with a ResumeInfo
	// (JSON) naming the current version, then replays only the missed
	// ops as MsgSceneOpVer messages.
	MsgResumeOK
	// MsgDeclined is a render service's fast refusal of a render request
	// it cannot serve in time — its admission queue is full or the
	// request's deadline is infeasible. The caller should retry elsewhere
	// or after the hinted backoff. Conn.Refuse writes it for a *Decline
	// and Conn.Expect reads it back as one.
	MsgDeclined
	// MsgTelemetryQuery asks a service for a telemetry snapshot over its
	// existing control socket; payload empty. Pre-telemetry peers ignore
	// it (service loops skip unknown message types).
	MsgTelemetryQuery
	// MsgTelemetryReport answers with a telemetry.Snapshot (JSON).
	MsgTelemetryReport
	// MsgRouteQuery asks the gateway tier which data service owns a
	// session (RouteQuery payload): thin clients route once, then talk
	// to the owner directly.
	MsgRouteQuery
	// MsgRouteReport answers with the owning node, its access point
	// and the ownership lease epoch (RouteInfo payload). An unknown
	// session answers MsgError instead.
	MsgRouteReport
	// MsgRender asks a render service to draw; payload: RenderRequest
	// (JSON), followed by a MsgSceneSnapshot when the request names a
	// camera. The hello's role decides the answer: MsgFrame for a thin
	// client, MsgFrameDepth for a peer.
	MsgRender
)

// String names the message type.
func (t MsgType) String() string {
	names := map[MsgType]string{
		MsgHello: "hello", MsgOK: "ok", MsgError: "error",
		MsgSceneSnapshot: "scene-snapshot", MsgSceneOp: "scene-op",
		MsgCameraUpdate: "camera-update",
		MsgFrame:        "frame", MsgFrameDepth: "frame-depth",
		MsgCapacityQuery: "capacity-query", MsgCapacityReport: "capacity-report",
		MsgLoadReport: "load-report",
		MsgBye:        "bye", MsgSetInterest: "set-interest",
		MsgSceneOpVer: "scene-op-ver", MsgVersionQuery: "version-query",
		MsgVersionReport: "version-report", MsgResyncRequest: "resync-request",
		MsgStandbyAck: "standby-ack", MsgResumeOK: "resume-ok",
		MsgDeclined:        "declined",
		MsgTelemetryQuery:  "telemetry-query",
		MsgTelemetryReport: "telemetry-report",
		MsgRouteQuery:      "route-query",
		MsgRouteReport:     "route-report",
		MsgRender:          "render",
	}
	if n, ok := names[t]; ok {
		return n
	}
	return fmt.Sprintf("msg(%d)", uint16(t))
}

// frameMagic guards each frame against desync.
const frameMagic uint16 = 0x5256 // "RV"

// headerSize is magic(2) + type(2) + length(4) + payload CRC-32(4).
const headerSize = 12

// MaxPayload bounds a single message (a 2.8 M-triangle scene snapshot is
// ~250 MB; leave headroom).
const MaxPayload = 1 << 30

// eagerPayload is the largest payload Receive allocates on the header's
// word alone. A longer one grows as its bytes arrive, so twelve bytes
// claiming MaxPayload cost the receiver this much, not a gigabyte.
const eagerPayload = 16 << 20

// Typed framing errors, so recovery code can tell a desynced or corrupted
// stream (reconnect and resync) from a clean shutdown (io.EOF).
var (
	// ErrBadMagic means the stream lost framing sync.
	ErrBadMagic = errors.New("transport: bad frame magic")
	// ErrChecksum means a payload arrived corrupted.
	ErrChecksum = errors.New("transport: payload checksum mismatch")
	// ErrTooLarge means a frame header announced an oversize payload.
	ErrTooLarge = errors.New("transport: payload exceeds limit")
	// ErrTruncated means the stream ended mid-frame.
	ErrTruncated = errors.New("transport: truncated frame")
)

// PeerError attributes a transport failure to the remote peer the
// connection was speaking to, so telemetry error counters can label by
// peer name instead of reporting an anonymous stream failure. It wraps
// the underlying error: errors.Is/As still see ErrTruncated,
// ErrChecksum and friends through it. A clean io.EOF is never wrapped
// — callers distinguish clean shutdown by comparing against io.EOF
// directly.
type PeerError struct {
	// Peer is the remote's negotiated service name (from the hello
	// exchange), not its network address: service names form a bounded
	// set, addresses do not.
	Peer string
	// Op is "send" or "receive".
	Op  string
	Err error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("transport: %s (peer %s): %v", e.Op, e.Peer, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// Conn frames messages over any reliable byte stream (net.Conn, net.Pipe,
// or a simulated link). Sends are serialized by an internal mutex;
// receives must be driven by a single reader goroutine.
type Conn struct {
	rw  io.ReadWriter
	wmu sync.Mutex

	// peer is the remote's service name, learned from the hello
	// exchange; once set, transport failures are wrapped in PeerError.
	peer atomic.Value // string
}

// NewConn wraps a byte stream.
func NewConn(rw io.ReadWriter) *Conn { return &Conn{rw: rw} }

// Dialer opens a fresh stream to a service — a fixed address redialled,
// or a UDDI re-discovery that finds whichever instance is registered
// now. Reconnect loops call it once per attempt.
type Dialer func() (io.ReadWriteCloser, error)

// Dial opens a TCP stream to a UDDI access point; the "tcp://" scheme
// the registry stores is optional, so flag-supplied host:port addresses
// dial the same way.
func Dial(accessPoint string) (net.Conn, error) {
	return net.Dial("tcp", strings.TrimPrefix(accessPoint, "tcp://"))
}

// SetPeer records the remote's service name (from the hello exchange).
// Subsequent Send/Receive failures are wrapped in a PeerError naming
// it. Safe for concurrent use with Send/Receive.
func (c *Conn) SetPeer(name string) { c.peer.Store(name) }

// Peer returns the recorded remote service name, or "" before SetPeer.
func (c *Conn) Peer() string {
	if p, ok := c.peer.Load().(string); ok {
		return p
	}
	return ""
}

// wrapPeer attributes err to the connection's peer when one is known.
// io.EOF passes through bare: recovery code distinguishes a clean
// shutdown by comparing err == io.EOF.
func (c *Conn) wrapPeer(op string, err error) error {
	if err == nil || err == io.EOF {
		return err
	}
	if p := c.Peer(); p != "" {
		return &PeerError{Peer: p, Op: op, Err: err}
	}
	return err
}

// readDeadliner is implemented by net.Conn and netsim.SimConn.
type readDeadliner interface {
	SetReadDeadline(time.Time) error
}

// ErrNoDeadline is returned by SetReadDeadline when the underlying
// stream cannot time out reads.
var ErrNoDeadline = errors.New("transport: stream does not support read deadlines")

// SetReadDeadline bounds future Receives when the underlying stream
// supports deadlines (net.Conn, netsim.SimConn). The zero time clears
// it. Service loops use this to detect stalled subscription sockets.
func (c *Conn) SetReadDeadline(t time.Time) error {
	if d, ok := c.rw.(readDeadliner); ok {
		return d.SetReadDeadline(t)
	}
	return ErrNoDeadline
}

// vectoredMin is the smallest payload Send hands a TCP stream beside its
// header in one vectored write; a smaller one is cheaper to copy.
const vectoredMin = 16 << 10

// Send writes one t message whole (header, CRC and payload together), so
// a simulated-link fault drops or truncates whole messages, never
// interleavings: header and payload copied into one buffer for one
// Write, or, for a large payload on a TCP stream, handed to the kernel
// side by side in one vectored write, so that a frame, snapshot or
// reshape is not copied just to sit behind twelve bytes. payload is not
// retained. Safe for concurrent use.
func (c *Conn) Send(t MsgType, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
	}
	_, tcp := c.rw.(*net.TCPConn)
	vectored := tcp && len(payload) >= vectoredMin
	size := headerSize
	if !vectored {
		size += len(payload)
	}
	msg := make([]byte, headerSize, size)
	binary.BigEndian.PutUint16(msg[0:], frameMagic)
	binary.BigEndian.PutUint16(msg[2:], uint16(t))
	binary.BigEndian.PutUint32(msg[4:], uint32(len(payload)))
	binary.BigEndian.PutUint32(msg[8:], crc32.ChecksumIEEE(payload))
	if !vectored {
		msg = append(msg, payload...)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	// wmu exists solely to keep concurrent frames from interleaving on
	// this one stream — it guards no other state, so a stalled link
	// blocks only this Conn's senders. This is the one sanctioned
	// mutex-across-I/O in the codebase; callers must never hold their
	// own locks across Send (the lockedio analyzer enforces that).
	var err error
	if vectored {
		_, err = (&net.Buffers{msg, payload}).WriteTo(c.rw) //lint:allow lockedio: wmu only serializes this stream's writes
	} else {
		_, err = c.rw.Write(msg) //lint:allow lockedio: wmu only serializes this stream's writes
	}
	if err != nil {
		return c.wrapPeer("send", fmt.Errorf("transport: send %s: %w", t, err))
	}
	return nil
}

// SendJSON marshals v as the payload of a t message.
func (c *Conn) SendJSON(t MsgType, v interface{}) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("transport: encode %s: %w", t, err)
	}
	return c.Send(t, data)
}

// Receive reads one message, verifying framing and the payload checksum.
// A clean end-of-stream before any header byte is io.EOF; a stream dying
// mid-frame wraps ErrTruncated; desync and corruption surface as
// ErrBadMagic / ErrChecksum.
func (c *Conn) Receive() (MsgType, []byte, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(c.rw, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return 0, nil, c.wrapPeer("receive", fmt.Errorf("%w: stream ended inside header", ErrTruncated))
		}
		return 0, nil, c.wrapPeer("receive", err)
	}
	if binary.BigEndian.Uint16(hdr[0:]) != frameMagic {
		return 0, nil, c.wrapPeer("receive", fmt.Errorf("%w: %#x", ErrBadMagic, binary.BigEndian.Uint16(hdr[0:])))
	}
	t := MsgType(binary.BigEndian.Uint16(hdr[2:]))
	n := binary.BigEndian.Uint32(hdr[4:])
	if n > MaxPayload {
		return 0, nil, c.wrapPeer("receive", fmt.Errorf("%w: %d bytes", ErrTooLarge, n))
	}
	sum := binary.BigEndian.Uint32(hdr[8:])
	payload := make([]byte, min(int(n), eagerPayload))
	_, err := io.ReadFull(c.rw, payload)
	for have := len(payload); err == nil && have < int(n); have = len(payload) {
		payload = append(payload, make([]byte, min(int(n)-have, have))...)
		_, err = io.ReadFull(c.rw, payload[have:])
	}
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, nil, c.wrapPeer("receive", fmt.Errorf("%w: stream ended inside %s payload", ErrTruncated, t))
		}
		return 0, nil, c.wrapPeer("receive", fmt.Errorf("transport: read payload: %w", err))
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, c.wrapPeer("receive", fmt.Errorf("%w: %s payload", ErrChecksum, t))
	}
	return t, payload, nil
}

// DecodeJSON unmarshals a JSON payload into v.
func DecodeJSON(payload []byte, v interface{}) error {
	return json.Unmarshal(payload, v)
}

// Accept is the serving side of the hello: it wraps rw, receives the
// peer's Hello and records the name it gives, so every later failure on
// the connection is attributed to it. What answers the hello — an OK, a
// bootstrap snapshot, a refusal — is the service's own.
func Accept(rw io.ReadWriter) (*Conn, Hello, error) {
	c := NewConn(rw)
	var hello Hello
	if err := c.ExpectJSON(MsgHello, &hello); err != nil {
		return nil, Hello{}, err
	}
	c.SetPeer(hello.Name)
	return c, hello, nil
}

// Greet is the asking side of a hello answered with MsgOK.
func (c *Conn) Greet(hello Hello) error {
	if err := c.SendJSON(MsgHello, hello); err != nil {
		return err
	}
	_, err := c.Expect(MsgOK)
	return err
}

// Expect receives the answer to the request just sent: the payload of a
// want message, the peer's *Refusal or *Decline when it said no, or an
// error naming both types when it said something else. A refusal is an
// answer on a healthy connection, which is what its type tells a caller
// deciding whether to redial. Receive's errors, io.EOF included, pass
// through as they are.
func (c *Conn) Expect(want MsgType) ([]byte, error) {
	t, payload, err := c.Receive()
	switch {
	case err != nil:
		return nil, err
	case t == want:
		return payload, nil
	}
	if err := c.Refused(t, payload); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("transport: expected %s, got %s", want, t)
}

// ExpectJSON is Expect for an answer whose payload is JSON.
func (c *Conn) ExpectJSON(want MsgType, v interface{}) error {
	payload, err := c.Expect(want)
	if err != nil {
		return err
	}
	return DecodeJSON(payload, v)
}

// Refused is Expect's classification alone, for a loop that reads many
// types: the typed error a MsgError or MsgDeclined carries, nil for any
// other message. A refusal whose body does not decode is still one.
func (c *Conn) Refused(t MsgType, payload []byte) error {
	switch t {
	case MsgError:
		var ei errorInfo
		_ = json.Unmarshal(payload, &ei)
		return &Refusal{Peer: c.Peer(), Message: ei.Message}
	case MsgDeclined:
		var d declined
		_ = json.Unmarshal(payload, &d)
		return &Decline{Service: c.Peer(), Reason: d.Reason, RetryAfter: time.Duration(d.RetryAfterMs) * time.Millisecond}
	}
	return nil
}

// Refuse answers a request with err: as MsgDeclined when err is (or
// wraps) a *Decline, as MsgError carrying its text otherwise. Neither
// ends the session.
func (c *Conn) Refuse(err error) error {
	var d *Decline
	if errors.As(err, &d) {
		return c.SendJSON(MsgDeclined, declined{Reason: d.Reason, RetryAfterMs: d.RetryAfter.Milliseconds()})
	}
	return c.SendJSON(MsgError, errorInfo{Message: err.Error()})
}

// PackVersioned prefixes body with a scene version: the version an op
// produced (MsgSceneOpVer) or the one a frame shows (MsgFrameDepth). A nil
// body gives the bare prefix, for an encoder to append to.
func PackVersioned(version uint64, body []byte) []byte {
	out := make([]byte, 8+len(body))
	binary.BigEndian.PutUint64(out, version)
	copy(out[8:], body)
	return out
}

// UnpackVersioned splits a PackVersioned payload.
func UnpackVersioned(payload []byte) (version uint64, body []byte, err error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("%w: versioned payload shorter than its prefix", ErrTruncated)
	}
	return binary.BigEndian.Uint64(payload), payload[8:], nil
}

// --- typed control payloads ---

// Hello opens a session on a direct socket, and its Role says what the
// sender gets there. Of a data service, "render-service" and "standby"
// get the session's op stream (a standby acks what it applies). Of a
// render service, "thin-client" is a viewer — the session must be held,
// a MsgRender is interactive, hides the viewer's own avatar and is
// answered with MsgFrame in the codec asked for — and "peer" is another
// service asking for help: it may say hello before the replica lands, a
// MsgRender is an assist under the background admission cap, and the
// answer is MsgFrameDepth for compositing.
type Hello struct {
	Role     string `json:"role"`
	Name     string `json:"name"`
	Session  string `json:"session"`
	Instance string `json:"instance,omitempty"`
	// SinceVersion, when non-zero, asks to resume an interrupted
	// subscription: the subscriber already holds a replica at this scene
	// version and wants only the ops it missed. The service answers
	// MsgResumeOK + the op tail when its history covers the gap, or
	// falls back to a full MsgSceneSnapshot bootstrap when it does not.
	SinceVersion uint64 `json:"since_version,omitempty"`
	// Region is the subscriber's locality ("region" or "region/zone"),
	// letting the service classify bootstrap traffic as in-region or
	// cross-region. Empty means unknown and is treated as local.
	Region string `json:"region,omitempty"`
}

// errorInfo is MsgError's wire form and Refusal its Go form — e.g. the
// paper's "request is refused with an explanatory error message" when
// resources are insufficient (§3.2.5).
type errorInfo struct {
	Message string `json:"message"`
}

// Refusal is a peer's MsgError: an application-level answer (no such
// session, a bad frame size) on a connection that stays healthy.
type Refusal struct {
	// Peer is the refusing service as the connection knows it; a thin
	// client never learns its render service's name and leaves it empty.
	Peer    string
	Message string
}

func (e *Refusal) Error() string {
	if e.Peer == "" {
		return "refused: " + e.Message
	}
	return fmt.Sprintf("%s refused: %s", e.Peer, e.Message)
}

// CameraState is the shared camera of a collaborative session.
type CameraState struct {
	Eye    [3]float64 `json:"eye"`
	Target [3]float64 `json:"target"`
	Up     [3]float64 `json:"up"`
	FovY   float64    `json:"fovy"`
	Near   float64    `json:"near"`
	Far    float64    `json:"far"`
}

// RenderRequest is the payload of MsgRender, the one way to ask a render
// service to draw: a region of a full frame, by a deadline, under the
// caller's trace. The connection's hello says which session and who is
// asking (see Hello).
type RenderRequest struct {
	// X0,Y0-X1,Y1 is the region of the FullW x FullH frame to render: all
	// of it for a viewer's frame or a scene subset, a band for a tile.
	X0    int `json:"x0"`
	Y0    int `json:"y0"`
	X1    int `json:"x1"`
	Y1    int `json:"y1"`
	FullW int `json:"full_w"`
	FullH int `json:"full_h"`
	// Codec encodes a MsgFrame answer: "raw" (or empty), "rle",
	// "delta-rle", "flate", "adaptive".
	Codec string `json:"codec,omitempty"`
	// Camera, when set, means "my scene follows as MsgSceneSnapshot; draw
	// it under this camera and keep nothing" — dataset distribution's
	// subset. Unset draws the session's replica under the shared camera.
	Camera *CameraState `json:"camera,omitempty"`
	// DeadlineNanos, when non-zero, is the absolute deadline for the
	// result in nanoseconds on the session clock (time.Time.UnixNano). A
	// service that cannot meet it answers MsgDeclined instead of rendering
	// a frame nobody will display.
	DeadlineNanos int64 `json:"deadline_nanos,omitempty"`
	// Trace/Parent carry the caller's telemetry span context so the
	// service's render span joins the caller's trace tree. Zero means
	// untraced.
	Trace  uint64 `json:"trace,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
}

// CapacityReport answers a capacity interrogation: "available polygons
// per second, texture memory, support for hardware assisted volume
// rendering" (§3.2.5).
type CapacityReport struct {
	Name              string  `json:"name"`
	PolysPerSecond    float64 `json:"polys_per_second"`
	PointsPerSecond   float64 `json:"points_per_second"`
	VoxelsPerSecond   float64 `json:"voxels_per_second"`
	TextureMemory     int64   `json:"texture_memory"`
	HardwareVolume    bool    `json:"hardware_volume"`
	CurrentWork       float64 `json:"current_work"`
	TargetFPS         float64 `json:"target_fps"`
	OffscreenHardware bool    `json:"offscreen_hardware"`
}

// LoadReport is the periodic load signal driving workload migration
// (§3.2.7): a render rate below threshold marks the service overloaded.
type LoadReport struct {
	Name        string  `json:"name"`
	FPS         float64 `json:"fps"`
	WorkPerSec  float64 `json:"work_per_sec"`
	TextureUsed int64   `json:"texture_used"`
}

// VersionReport answers a MsgVersionQuery with the session's current
// authoritative scene version; replicas compare it against their own to
// detect missed updates. It is also the MsgStandbyAck payload, where
// Version is the highest op version the standby has applied.
type VersionReport struct {
	Version uint64 `json:"version"`
}

// ResumeInfo answers a resume-at-version Hello (MsgResumeOK): the
// service will replay ops (SinceVersion, Version] as MsgSceneOpVer
// instead of shipping a full bootstrap snapshot.
type ResumeInfo struct {
	// Version is the session's current authoritative scene version.
	Version uint64 `json:"version"`
	// Since echoes the subscriber's resume point.
	Since uint64 `json:"since"`
}

// SetInterest marks scene nodes as being of interest to the sending
// subscriber (§3.2.5); the data service then filters its update stream.
// An empty NodeIDs clears the filter.
type SetInterest struct {
	NodeIDs []uint64 `json:"node_ids"`
}

// declined is MsgDeclined's wire form and Decline its Go form.
type declined struct {
	Reason       string `json:"reason"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// Decline is a render service's typed refusal of work it cannot finish in
// time: from its admission gate in-process, read back from MsgDeclined
// over a socket, or from a breaker standing in for a peer. Callers route
// the work to another service, or retry here after RetryAfter.
type Decline struct {
	// Service names the declining render service (the connection's peer,
	// when the decline came over one).
	Service string
	// Reason is "queue-full", "expired" or "deadline" from an admission
	// gate (renderservice.Reason*), "breaker-open" from a breaker.
	Reason string
	// RetryAfter hints how long until the service expects free capacity;
	// zero when retrying there is pointless (the request had expired).
	RetryAfter time.Duration
}

func (e *Decline) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("renderservice %s overloaded (%s): retry after %v", e.Service, e.Reason, e.RetryAfter)
	}
	return fmt.Sprintf("renderservice %s overloaded (%s)", e.Service, e.Reason)
}

// RouteQuery is the payload of MsgRouteQuery: which data service owns
// this session?
type RouteQuery struct {
	Session string `json:"session"`
}

// RouteInfo is the payload of MsgRouteReport: the session's owning
// data service, where to reach it, and the UDDI ownership lease epoch
// backing the answer. A client that reconnects after a failover
// compares epochs — a higher epoch supersedes any cached route.
type RouteInfo struct {
	Session string `json:"session"`
	// Node is the owning data service's fleet name.
	Node string `json:"node"`
	// AccessPoint is the owner's registered endpoint ("" when the
	// registry holds none).
	AccessPoint string `json:"access_point,omitempty"`
	// Epoch is the ownership lease epoch.
	Epoch uint64 `json:"epoch"`
	// Standby names the first node mirroring the session ("" when the
	// fleet is too small for standbys). Kept for older clients; new
	// clients read Replicas.
	Standby string `json:"standby,omitempty"`
	// Replicas lists every node currently mirroring the session, in
	// attach order (the first entry equals Standby).
	Replicas []string `json:"replicas,omitempty"`
}

// DeadlineToNanos converts an absolute deadline to its wire form; the
// zero time (no deadline) maps to zero.
func DeadlineToNanos(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// DeadlineFromNanos converts a wire deadline back to a time.Time; zero
// (no deadline) maps to the zero time.
func DeadlineFromNanos(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}
