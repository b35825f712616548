// Package marshal serializes RAVE's scene trees, update ops and frame
// buffers for the direct-socket protocol the services fall back to after
// SOAP subscription (§4.3). Two encoders produce the same wire format:
// the direct encoder, and a reflection-based "introspection" encoder that
// reproduces the paper's Java approach ("each node in the scene graph is
// examined for implemented interfaces, and the appropriate interface is
// used to extract the data", §5.5) — which the paper identifies as the
// bootstrap bottleneck. Benchmarks compare the two.
package marshal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/mathx"
	"repro/internal/scene"
)

// maxSliceLen bounds decoded slice lengths to keep corrupted or malicious
// streams from allocating unbounded memory.
const maxSliceLen = 1 << 28

// CountWriter measures an encoding's size without retaining the bytes.
type CountWriter struct{ N int64 }

func (c *CountWriter) Write(p []byte) (int, error) {
	c.N += int64(len(p))
	return len(p), nil
}

// encoder appends the wire form to b. The direct entry points grow b by
// the size pass's exact figure first (AppendOp, AppendScene,
// AppendFrame), so nothing below reallocates; the introspection encoder
// starts from nothing and lets append grow it.
type encoder struct {
	b   []byte
	err error
}

func (e *encoder) u8(v uint8)    { e.b = append(e.b, v) }
func (e *encoder) u32(v uint32)  { e.b = binary.BigEndian.AppendUint32(e.b, v) }
func (e *encoder) u64(v uint64)  { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) vec3(v mathx.Vec3) { e.f64(v.X); e.f64(v.Y); e.f64(v.Z) }

func (e *encoder) mat4(m mathx.Mat4) {
	for _, v := range m {
		e.f64(v)
	}
}

// slab appends an n-element length prefix and returns the n*size bytes
// after it for the caller's loop to fill.
func (e *encoder) slab(n, size int) []byte {
	e.u32(uint32(n))
	at := len(e.b)
	e.b = slices.Grow(e.b, n*size)[:at+n*size]
	return e.b[at:]
}

func (e *encoder) vec3Slice(vs []mathx.Vec3) {
	out := e.slab(len(vs), 24)
	for _, v := range vs {
		_ = out[23]
		binary.BigEndian.PutUint64(out, math.Float64bits(v.X))
		binary.BigEndian.PutUint64(out[8:], math.Float64bits(v.Y))
		binary.BigEndian.PutUint64(out[16:], math.Float64bits(v.Z))
		out = out[24:]
	}
}

func (e *encoder) u32Slice(vs []uint32) {
	out := e.slab(len(vs), 4)
	for i, v := range vs {
		binary.BigEndian.PutUint32(out[4*i:], v)
	}
}

func (e *encoder) f32Slice(vs []float32) { putF32s(e.slab(len(vs), 4), vs) }

// putF32s encodes vs into out, two to a store.
func putF32s(out []byte, vs []float32) {
	for ; len(vs) >= 2; vs, out = vs[2:], out[8:] {
		binary.BigEndian.PutUint64(out, uint64(math.Float32bits(vs[0]))<<32|uint64(math.Float32bits(vs[1])))
	}
	if len(vs) == 1 {
		binary.BigEndian.PutUint32(out, math.Float32bits(vs[0]))
	}
}

// room is where an io.Writer entry point encodes size bytes for out: a
// bytes.Buffer's own spare capacity, so that the Write that follows
// allocates and moves nothing, or nil for the encoder to allocate.
func room(out io.Writer, size int) []byte {
	if buf, ok := out.(*bytes.Buffer); ok {
		buf.Grow(size)
		return buf.AvailableBuffer()
	}
	return nil
}

// flush hands a finished encoding to an io.Writer entry point's writer.
func flush(out io.Writer, b []byte, err error) error {
	if err == nil {
		_, err = out.Write(b)
	}
	return err
}

// decoder walks a received encoding; b is what is left of it. The first
// failure sticks and every later read returns zero.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil && err != nil {
		d.err = err
	}
}

// take returns the next n bytes, nil once the input has run out.
func (d *decoder) take(n int) []byte {
	if d.err == nil && n > len(d.b) {
		d.err = io.ErrUnexpectedEOF
	}
	if d.err != nil {
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

// uint reads an n-byte big-endian scalar.
func (d *decoder) uint(n int) (v uint64) {
	for _, b := range d.take(n) {
		v = v<<8 | uint64(b)
	}
	return v
}

func (d *decoder) u8() uint8    { return uint8(d.uint(1)) }
func (d *decoder) u32() uint32  { return uint32(d.uint(4)) }
func (d *decoder) u64() uint64  { return d.uint(8) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// slab reads an element count and returns that many size-byte elements
// still encoded. A count the format forbids or the bytes left cannot
// hold fails here, before the caller allocates anything for it.
func (d *decoder) slab(size, limit int, what string) (n int, raw []byte) {
	n = int(d.u32())
	if d.err != nil {
		return 0, nil
	}
	if n < 0 || n > limit {
		d.fail(fmt.Errorf("marshal: %s length %d exceeds %d", what, n, limit))
		return 0, nil
	}
	return n, d.take(n * size)
}

func (d *decoder) str() string {
	_, raw := d.slab(1, 1<<20, "string")
	return string(raw)
}

func (d *decoder) vec3() mathx.Vec3 { return mathx.V3(d.f64(), d.f64(), d.f64()) }

func (d *decoder) mat4() mathx.Mat4 {
	var m mathx.Mat4
	if raw := d.take(8 * len(m)); raw != nil {
		for i := range m {
			m[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[8*i:]))
		}
	}
	return m
}

func (d *decoder) vec3Slice() []mathx.Vec3 {
	n, raw := d.slab(24, maxSliceLen/24, "vec3 slice")
	if len(raw) == 0 {
		return nil
	}
	out := make([]mathx.Vec3, n)
	for i := range out {
		_ = raw[23]
		out[i] = mathx.Vec3{
			X: math.Float64frombits(binary.BigEndian.Uint64(raw)),
			Y: math.Float64frombits(binary.BigEndian.Uint64(raw[8:])),
			Z: math.Float64frombits(binary.BigEndian.Uint64(raw[16:])),
		}
		raw = raw[24:]
	}
	return out
}

func (d *decoder) u32Slice(what string) []uint32 {
	n, raw := d.slab(4, maxSliceLen/4, what)
	if d.err != nil {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint32(raw[4*i:])
	}
	return out
}

// f32s converts raw, n encoded float32s, into out[:n], two to a load.
func f32s(out []float32, raw []byte) {
	for ; len(out) >= 2; out, raw = out[2:], raw[8:] {
		v := binary.BigEndian.Uint64(raw)
		out[0], out[1] = math.Float32frombits(uint32(v>>32)), math.Float32frombits(uint32(v))
	}
	if len(out) == 1 {
		out[0] = math.Float32frombits(binary.BigEndian.Uint32(raw))
	}
}

// end fails a decode that did not use every byte it was handed: each
// caller holds exactly one value (a transport payload, a journal or
// audit record), so leftovers mean a framing fault, not a second value.
func (d *decoder) end() error {
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("marshal: %d trailing bytes", len(d.b))
	}
	return d.err
}

// readAll drains an io.Reader entry point's reader, in one exactly sized
// read when the reader knows its length (bytes.Reader, bytes.Buffer).
func readAll(in io.Reader) ([]byte, error) {
	if l, ok := in.(interface{ Len() int }); ok {
		b := make([]byte, l.Len())
		_, err := io.ReadFull(in, b)
		return b, err
	}
	return io.ReadAll(in)
}

// --- payloads ---

// payloadSize is the encoded size of p with its kind byte.
func payloadSize(p scene.Payload) int {
	switch pl := p.(type) {
	case *scene.MeshPayload:
		m := pl.Mesh
		return 1 + 4*4 + 24*(len(m.Positions)+len(m.Normals)+len(m.Colors)) + 4*len(m.Indices)
	case *scene.PointsPayload:
		return 1 + 2*4 + 24*(len(pl.Cloud.Points)+len(pl.Cloud.Colors))
	case *scene.VoxelsPayload:
		return 1 + 3*4 + 24 + 8 + 8 + 4 + 4*len(pl.Grid.Data)
	case *scene.AvatarPayload:
		return 1 + 4 + len(pl.User) + 24
	}
	return 1
}

func writePayload(w *encoder, p scene.Payload) {
	if p == nil {
		w.u8(uint8(scene.KindGroup))
		return
	}
	w.u8(uint8(p.Kind()))
	writePayloadBody(w, p)
}

// writePayloadBody writes the payload content after the kind byte.
func writePayloadBody(w *encoder, p scene.Payload) {
	switch pl := p.(type) {
	case *scene.MeshPayload:
		m := pl.Mesh
		w.vec3Slice(m.Positions)
		w.vec3Slice(m.Normals)
		w.vec3Slice(m.Colors)
		w.u32Slice(m.Indices)
	case *scene.PointsPayload:
		w.vec3Slice(pl.Cloud.Points)
		w.vec3Slice(pl.Cloud.Colors)
	case *scene.VoxelsPayload:
		g := pl.Grid
		w.u32(uint32(g.NX))
		w.u32(uint32(g.NY))
		w.u32(uint32(g.NZ))
		w.vec3(g.Origin)
		w.f64(g.Spacing)
		w.f64(pl.Iso)
		w.f32Slice(g.Data)
	case *scene.AvatarPayload:
		w.str(pl.User)
		w.vec3(pl.Color)
	default:
		w.err = fmt.Errorf("marshal: unknown payload type %T", p)
	}
}

func readPayload(r *decoder) scene.Payload {
	kind := scene.Kind(r.u8())
	if r.err != nil {
		return nil
	}
	switch kind {
	case scene.KindGroup:
		return nil
	case scene.KindMesh:
		m := &geom.Mesh{
			Positions: r.vec3Slice(),
			Normals:   r.vec3Slice(),
			Colors:    r.vec3Slice(),
			Indices:   r.u32Slice("index slice"),
		}
		if r.err == nil {
			r.fail(m.Validate())
		}
		return &scene.MeshPayload{Mesh: m}
	case scene.KindPoints:
		cloud := &geom.PointCloud{Points: r.vec3Slice(), Colors: r.vec3Slice()}
		if r.err == nil {
			r.fail(cloud.Validate())
		}
		return &scene.PointsPayload{Cloud: cloud}
	case scene.KindVoxels:
		nx, ny, nz := int(r.u32()), int(r.u32()), int(r.u32())
		origin := r.vec3()
		spacing := r.f64()
		iso := r.f64()
		n, raw := r.slab(4, maxSliceLen/4, "voxel data")
		if r.err != nil {
			return nil
		}
		if n != nx*ny*nz {
			r.fail(fmt.Errorf("marshal: voxel data length %d for %dx%dx%d", n, nx, ny, nz))
			return nil
		}
		grid := &geom.VoxelGrid{NX: nx, NY: ny, NZ: nz, Origin: origin, Spacing: spacing, Data: make([]float32, n)}
		f32s(grid.Data, raw)
		r.fail(grid.Validate())
		return &scene.VoxelsPayload{Grid: grid, Iso: iso}
	case scene.KindAvatar:
		return &scene.AvatarPayload{User: r.str(), Color: r.vec3()}
	default:
		r.fail(fmt.Errorf("marshal: unknown payload kind %d", kind))
		return nil
	}
}

// --- scene ---

// sceneMagic guards against decoding garbage as a scene.
const sceneMagic = 0x52415645 // "RAVE"

// nodeFixed is a node's encoding without its name and payload: ID, name
// length, transform and child count.
const nodeFixed = 8 + 4 + 128 + 4

// SceneSize is the length of s's encoding, from one pass over its nodes
// that touches no array.
func SceneSize(s *scene.Scene) int {
	var nodeSize func(n *scene.Node) int
	nodeSize = func(n *scene.Node) int {
		size := nodeFixed + len(n.Name) + payloadSize(n.Payload)
		for _, c := range n.Children {
			size += nodeSize(c)
		}
		return size
	}
	return 4 + 8 + nodeSize(s.Root)
}

// AppendScene appends a full scene snapshot — what a render service
// bootstraps from (Table 5's "service bootstrap" payload) — to dst,
// growing it once by SceneSize. Callers that send the snapshot leave
// their header's room in dst and so never copy it.
func AppendScene(dst []byte, s *scene.Scene) ([]byte, error) {
	w := encoder{b: slices.Grow(dst, SceneSize(s))}
	w.u32(sceneMagic)
	w.u64(s.Version)
	var writeNode func(n *scene.Node)
	writeNode = func(n *scene.Node) {
		w.u64(uint64(n.ID))
		w.str(n.Name)
		w.mat4(n.Transform)
		writePayload(&w, n.Payload)
		w.u32(uint32(len(n.Children)))
		for _, c := range n.Children {
			writeNode(c)
		}
	}
	writeNode(s.Root)
	return w.b, w.err
}

// WriteScene writes AppendScene's bytes to out.
func WriteScene(out io.Writer, s *scene.Scene) error {
	b, err := AppendScene(room(out, SceneSize(s)), s)
	return flush(out, b, err)
}

// ReadScene decodes everything in reads as one scene snapshot.
func ReadScene(in io.Reader) (*scene.Scene, error) {
	b, err := readAll(in)
	if err != nil {
		return nil, err
	}
	return DecodeScene(b)
}

// DecodeScene reconstructs a scene snapshot from exactly b.
func DecodeScene(b []byte) (*scene.Scene, error) {
	r := decoder{b: b}
	if magic := r.u32(); r.err == nil && magic != sceneMagic {
		return nil, fmt.Errorf("marshal: bad scene magic %#x", magic)
	}
	version := r.u64()

	readNode := func() (n *scene.Node, children uint32) {
		n = &scene.Node{
			ID:        scene.NodeID(r.u64()),
			Name:      r.str(),
			Transform: r.mat4(),
			Payload:   readPayload(&r),
		}
		return n, r.u32()
	}

	root, rootChildren := readNode()
	if r.err != nil {
		return nil, r.err
	}
	if root.ID != scene.RootID {
		return nil, fmt.Errorf("marshal: scene root has ID %d", root.ID)
	}
	s := scene.New()
	s.Root.Name = root.Name
	s.Root.Transform = root.Transform
	s.Root.Payload = root.Payload
	s.Version = version

	var attachChildren func(parent scene.NodeID, count uint32) error
	attachChildren = func(parent scene.NodeID, count uint32) error {
		if count > 1<<24 {
			return fmt.Errorf("marshal: node claims %d children", count)
		}
		for i := uint32(0); i < count; i++ {
			n, children := readNode()
			if r.err != nil {
				return r.err
			}
			if err := s.Attach(parent, n); err != nil {
				return err
			}
			if err := attachChildren(n.ID, children); err != nil {
				return err
			}
		}
		return nil
	}
	if err := attachChildren(scene.RootID, rootChildren); err != nil {
		return nil, err
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return s, nil
}

// --- ops ---

// opSize is the length of op's encoding.
func opSize(op scene.Op) int {
	switch o := op.(type) {
	case *scene.AddNodeOp:
		return 1 + 8 + 8 + 4 + len(o.Name) + 128 + payloadSize(o.Payload)
	case *scene.SetTransformOp:
		return 1 + 8 + 128
	case *scene.SetNameOp:
		return 1 + 8 + 4 + len(o.Name)
	case *scene.SetPayloadOp:
		return 1 + 8 + payloadSize(o.Payload)
	}
	return 1 + 8
}

// AppendOp appends one update op's encoding to dst, growing it once by
// the op's exact size. A commit encodes its op through here once, behind
// the room its journal record and transport frame need, and every
// consumer is handed those bytes.
func AppendOp(dst []byte, op scene.Op) ([]byte, error) {
	if op == nil {
		return dst, fmt.Errorf("marshal: nil op")
	}
	w := encoder{b: slices.Grow(dst, opSize(op))}
	w.u8(uint8(op.Kind()))
	switch o := op.(type) {
	case *scene.AddNodeOp:
		w.u64(uint64(o.Parent))
		w.u64(uint64(o.ID))
		w.str(o.Name)
		w.mat4(o.Transform)
		writePayload(&w, o.Payload)
	case *scene.RemoveNodeOp:
		w.u64(uint64(o.ID))
	case *scene.SetTransformOp:
		w.u64(uint64(o.ID))
		w.mat4(o.Transform)
	case *scene.SetNameOp:
		w.u64(uint64(o.ID))
		w.str(o.Name)
	case *scene.SetPayloadOp:
		w.u64(uint64(o.ID))
		writePayload(&w, o.Payload)
	default:
		return dst, fmt.Errorf("marshal: unknown op type %T", op)
	}
	return w.b, w.err
}

// WriteOp writes AppendOp's bytes to out.
func WriteOp(out io.Writer, op scene.Op) error {
	b, err := AppendOp(room(out, opSize(op)), op)
	return flush(out, b, err)
}

// ReadOp decodes everything in reads as one update op.
func ReadOp(in io.Reader) (scene.Op, error) {
	b, err := readAll(in)
	if err != nil {
		return nil, err
	}
	return DecodeOp(b)
}

// DecodeOp deserializes one update op from exactly b.
func DecodeOp(b []byte) (scene.Op, error) {
	r := decoder{b: b}
	kind := scene.OpKind(r.u8())
	if r.err != nil {
		return nil, r.err
	}
	var op scene.Op
	switch kind {
	case scene.OpAddNode:
		op = &scene.AddNodeOp{
			Parent:    scene.NodeID(r.u64()),
			ID:        scene.NodeID(r.u64()),
			Name:      r.str(),
			Transform: r.mat4(),
			Payload:   readPayload(&r),
		}
	case scene.OpRemoveNode:
		op = &scene.RemoveNodeOp{ID: scene.NodeID(r.u64())}
	case scene.OpSetTransform:
		op = &scene.SetTransformOp{ID: scene.NodeID(r.u64()), Transform: r.mat4()}
	case scene.OpSetName:
		op = &scene.SetNameOp{ID: scene.NodeID(r.u64()), Name: r.str()}
	case scene.OpSetPayload:
		op = &scene.SetPayloadOp{ID: scene.NodeID(r.u64()), Payload: readPayload(&r)}
	default:
		return nil, fmt.Errorf("marshal: unknown op kind %d", kind)
	}
	if err := r.end(); err != nil {
		return nil, err
	}
	return op, nil
}
