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

// Protocol messages.
const (
	// MsgHello opens a socket session; payload: Hello (JSON).
	MsgHello MsgType = iota + 1
	// MsgOK acknowledges; payload optional.
	MsgOK
	// MsgError reports failure; payload: ErrorInfo (JSON).
	MsgError
	// MsgSceneSnapshot carries a full marshalled scene.
	MsgSceneSnapshot
	// MsgSceneOp carries one marshalled scene update op.
	MsgSceneOp
	// MsgCameraUpdate carries a CameraState (JSON).
	MsgCameraUpdate
	// MsgFrameRequest asks a render service for a frame; payload:
	// FrameRequest (JSON).
	MsgFrameRequest
	// MsgFrame carries an imgcodec-encoded color frame.
	MsgFrame
	// MsgFrameDepth carries a marshalled frame+depth buffer for
	// compositing.
	MsgFrameDepth
	// MsgTileAssign asks a render service to render a tile; payload:
	// TileAssign (JSON).
	MsgTileAssign
	// MsgTileFrame returns a rendered tile; payload: TileHeader (JSON)
	// followed by the raw frame in the next message.
	MsgTileFrame
	// MsgCapacityQuery interrogates a render service's capacity.
	MsgCapacityQuery
	// MsgCapacityReport answers with a CapacityReport (JSON).
	MsgCapacityReport
	// MsgLoadReport is a render service's periodic load report to the
	// data service (JSON LoadReport).
	MsgLoadReport
	// MsgSubsetAssign gives a render service a scene subset to render
	// (JSON SubsetAssign; the subset scene follows as MsgSceneSnapshot).
	MsgSubsetAssign
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
	// MsgDeclined is a render service's fast refusal of a frame, tile or
	// subset request it cannot serve in time — its admission queue is
	// full or the request's deadline is infeasible (JSON Declined). The
	// caller should retry elsewhere or after the hinted backoff; unlike
	// MsgError it does not terminate the socket session.
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
)

// String names the message type.
func (t MsgType) String() string {
	names := map[MsgType]string{
		MsgHello: "hello", MsgOK: "ok", MsgError: "error",
		MsgSceneSnapshot: "scene-snapshot", MsgSceneOp: "scene-op",
		MsgCameraUpdate: "camera-update", MsgFrameRequest: "frame-request",
		MsgFrame: "frame", MsgFrameDepth: "frame-depth",
		MsgTileAssign: "tile-assign", MsgTileFrame: "tile-frame",
		MsgCapacityQuery: "capacity-query", MsgCapacityReport: "capacity-report",
		MsgLoadReport: "load-report", MsgSubsetAssign: "subset-assign",
		MsgBye: "bye", MsgSetInterest: "set-interest",
		MsgSceneOpVer: "scene-op-ver", MsgVersionQuery: "version-query",
		MsgVersionReport: "version-report", MsgResyncRequest: "resync-request",
		MsgStandbyAck: "standby-ack", MsgResumeOK: "resume-ok",
		MsgDeclined:        "declined",
		MsgTelemetryQuery:  "telemetry-query",
		MsgTelemetryReport: "telemetry-report",
		MsgRouteQuery:      "route-query",
		MsgRouteReport:     "route-report",
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

// PackVersioned prefixes a marshalled scene op with the authoritative
// scene version it produced, for MsgSceneOpVer.
func PackVersioned(version uint64, body []byte) []byte {
	out := make([]byte, 8+len(body))
	binary.BigEndian.PutUint64(out, version)
	copy(out[8:], body)
	return out
}

// UnpackVersioned splits a MsgSceneOpVer payload.
func UnpackVersioned(payload []byte) (version uint64, body []byte, err error) {
	if len(payload) < 8 {
		return 0, nil, fmt.Errorf("%w: versioned op shorter than its prefix", ErrTruncated)
	}
	return binary.BigEndian.Uint64(payload), payload[8:], nil
}

// --- typed control payloads ---

// Hello opens a session on a direct socket. Role distinguishes render
// services (which receive updates and serve render requests) from thin
// clients (which only receive frames).
type Hello struct {
	Role     string `json:"role"` // "render-service", "thin-client", "peer", "standby"
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

// ErrorInfo carries a failure back to the peer — e.g. the paper's
// "request is refused with an explanatory error message" when resources
// are insufficient (§3.2.5).
type ErrorInfo struct {
	Message string `json:"message"`
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

// FrameRequest asks a render service for a rendered frame.
type FrameRequest struct {
	W int `json:"w"`
	H int `json:"h"`
	// Codec: "raw", "rle", "delta-rle", "adaptive".
	Codec string `json:"codec,omitempty"`
	// DeadlineNanos, when non-zero, is the absolute deadline for this
	// frame in nanoseconds on the session clock (time.Time.UnixNano). A
	// service that cannot meet it answers MsgDeclined instead of
	// rendering a frame nobody will display.
	DeadlineNanos int64 `json:"deadline_nanos,omitempty"`
	// Trace/Parent carry the caller's telemetry span context so the
	// service's render span joins the caller's trace tree. Zero means
	// untraced; pre-telemetry decoders skip the fields (unknown JSON
	// fields are ignored).
	Trace  uint64 `json:"trace,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
}

// TileAssign assigns a tile of the full image to an assisting render
// service.
type TileAssign struct {
	X0      int    `json:"x0"`
	Y0      int    `json:"y0"`
	X1      int    `json:"x1"`
	Y1      int    `json:"y1"`
	FullW   int    `json:"full_w"`
	FullH   int    `json:"full_h"`
	Session string `json:"session"`
	// DeadlineNanos, when non-zero, is the absolute deadline for this
	// tile on the session clock (time.Time.UnixNano); see
	// FrameRequest.DeadlineNanos.
	DeadlineNanos int64 `json:"deadline_nanos,omitempty"`
	// Trace/Parent: caller's span context; see FrameRequest.
	Trace  uint64 `json:"trace,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
}

// TileHeader precedes a tile's pixels.
type TileHeader struct {
	X0      int    `json:"x0"`
	Y0      int    `json:"y0"`
	X1      int    `json:"x1"`
	Y1      int    `json:"y1"`
	Version uint64 `json:"version"`
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

// SubsetAssign asks a render service to render a scene subset under
// dataset distribution: the subset scene itself follows in the next
// message as a MsgSceneSnapshot, and the service replies with a
// MsgFrameDepth for compositing.
type SubsetAssign struct {
	Session string      `json:"session"`
	NodeIDs []uint64    `json:"node_ids,omitempty"`
	W       int         `json:"w"`
	H       int         `json:"h"`
	Camera  CameraState `json:"camera"`
	// DeadlineNanos, when non-zero, is the absolute deadline for this
	// subset render on the session clock (time.Time.UnixNano); see
	// FrameRequest.DeadlineNanos.
	DeadlineNanos int64 `json:"deadline_nanos,omitempty"`
	// Trace/Parent: caller's span context; see FrameRequest.
	Trace  uint64 `json:"trace,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
}

// Declined is the payload of MsgDeclined: a fast, typed refusal from an
// overloaded render service. Reason is one of "queue-full", "expired" or
// "deadline"; RetryAfterMs hints how long the caller should wait before
// retrying this service (zero when retrying here is pointless, e.g. the
// request itself had already expired).
type Declined struct {
	Reason       string `json:"reason"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
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
