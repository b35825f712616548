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
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

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

type writer struct {
	w   *bufio.Writer
	err error
}

func newWriter(w io.Writer) *writer { return &writer{w: bufio.NewWriterSize(w, 1<<16)} }

func (w *writer) u8(v uint8) {
	if w.err == nil {
		w.err = w.w.WriteByte(v)
	}
}

func (w *writer) u32(v uint32) {
	if w.err != nil {
		return
	}
	var buf [4]byte
	binary.BigEndian.PutUint32(buf[:], v)
	_, w.err = w.w.Write(buf[:])
}

func (w *writer) u64(v uint64) {
	if w.err != nil {
		return
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	_, w.err = w.w.Write(buf[:])
}

func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

func (w *writer) vec3(v mathx.Vec3) { w.f64(v.X); w.f64(v.Y); w.f64(v.Z) }

func (w *writer) mat4(m mathx.Mat4) {
	for _, v := range m {
		w.f64(v)
	}
}

func (w *writer) vec3Slice(vs []mathx.Vec3) {
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.vec3(v)
	}
}

func (w *writer) flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

type reader struct {
	r   *bufio.Reader
	err error
}

func newReader(r io.Reader) *reader { return &reader{r: bufio.NewReaderSize(r, 1<<16)} }

func (r *reader) fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	b, err := r.r.ReadByte()
	r.fail(err)
	return b
}

func (r *reader) u32() uint32 {
	if r.err != nil {
		return 0
	}
	var buf [4]byte
	_, err := io.ReadFull(r.r, buf[:])
	r.fail(err)
	return binary.BigEndian.Uint32(buf[:])
}

func (r *reader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	var buf [8]byte
	_, err := io.ReadFull(r.r, buf[:])
	r.fail(err)
	return binary.BigEndian.Uint64(buf[:])
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) strN(max int) string {
	n := int(r.u32())
	if r.err != nil {
		return ""
	}
	if n < 0 || n > max {
		r.fail(fmt.Errorf("marshal: string length %d exceeds %d", n, max))
		return ""
	}
	buf := make([]byte, n)
	_, err := io.ReadFull(r.r, buf)
	r.fail(err)
	return string(buf)
}

func (r *reader) str() string { return r.strN(1 << 20) }

func (r *reader) byteSlice() []byte {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n < 0 || n > maxSliceLen {
		r.fail(fmt.Errorf("marshal: byte slice length %d exceeds %d", n, maxSliceLen))
		return nil
	}
	buf := make([]byte, n)
	_, err := io.ReadFull(r.r, buf)
	r.fail(err)
	return buf
}

func (r *reader) vec3() mathx.Vec3 { return mathx.V3(r.f64(), r.f64(), r.f64()) }

func (r *reader) mat4() mathx.Mat4 {
	var m mathx.Mat4
	for i := range m {
		m[i] = r.f64()
	}
	return m
}

func (r *reader) vec3Slice() []mathx.Vec3 {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n < 0 || n > maxSliceLen/24 {
		r.fail(fmt.Errorf("marshal: vec3 slice length %d too large", n))
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]mathx.Vec3, n)
	for i := range out {
		out[i] = r.vec3()
	}
	return out
}

// --- payloads ---

func writePayload(w *writer, p scene.Payload) {
	if p == nil {
		w.u8(uint8(scene.KindGroup))
		return
	}
	w.u8(uint8(p.Kind()))
	writePayloadBody(w, p)
}

// writePayloadBody writes the payload content after the kind byte.
func writePayloadBody(w *writer, p scene.Payload) {
	switch pl := p.(type) {
	case *scene.MeshPayload:
		writeMesh(w, pl.Mesh)
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
		w.u32(uint32(len(g.Data)))
		for _, v := range g.Data {
			w.u32(math.Float32bits(v))
		}
	case *scene.AvatarPayload:
		w.str(pl.User)
		w.vec3(pl.Color)
	default:
		w.err = fmt.Errorf("marshal: unknown payload type %T", p)
	}
}

func readPayload(r *reader) scene.Payload {
	kind := scene.Kind(r.u8())
	if r.err != nil {
		return nil
	}
	switch kind {
	case scene.KindGroup:
		return nil
	case scene.KindMesh:
		return &scene.MeshPayload{Mesh: readMesh(r)}
	case scene.KindPoints:
		cloud := &geom.PointCloud{Points: r.vec3Slice(), Colors: r.vec3Slice()}
		r.fail(cloud.Validate())
		return &scene.PointsPayload{Cloud: cloud}
	case scene.KindVoxels:
		nx, ny, nz := int(r.u32()), int(r.u32()), int(r.u32())
		origin := r.vec3()
		spacing := r.f64()
		iso := r.f64()
		n := int(r.u32())
		if r.err != nil {
			return nil
		}
		if n < 0 || n > maxSliceLen/4 || n != nx*ny*nz {
			r.fail(fmt.Errorf("marshal: voxel data length %d for %dx%dx%d", n, nx, ny, nz))
			return nil
		}
		data := make([]float32, n)
		for i := range data {
			data[i] = math.Float32frombits(r.u32())
		}
		grid := &geom.VoxelGrid{NX: nx, NY: ny, NZ: nz, Origin: origin, Spacing: spacing, Data: data}
		r.fail(grid.Validate())
		return &scene.VoxelsPayload{Grid: grid, Iso: iso}
	case scene.KindAvatar:
		return &scene.AvatarPayload{User: r.str(), Color: r.vec3()}
	default:
		r.fail(fmt.Errorf("marshal: unknown payload kind %d", kind))
		return nil
	}
}

func writeMesh(w *writer, m *geom.Mesh) {
	w.vec3Slice(m.Positions)
	w.vec3Slice(m.Normals)
	w.vec3Slice(m.Colors)
	w.u32(uint32(len(m.Indices)))
	for _, i := range m.Indices {
		w.u32(i)
	}
}

func readMesh(r *reader) *geom.Mesh {
	m := &geom.Mesh{
		Positions: r.vec3Slice(),
		Normals:   r.vec3Slice(),
		Colors:    r.vec3Slice(),
	}
	n := int(r.u32())
	if r.err != nil {
		return m
	}
	if n < 0 || n > maxSliceLen/4 {
		r.fail(fmt.Errorf("marshal: index count %d too large", n))
		return m
	}
	m.Indices = make([]uint32, n)
	for i := range m.Indices {
		m.Indices[i] = r.u32()
	}
	if r.err == nil {
		r.fail(m.Validate())
	}
	return m
}

// --- scene ---

// sceneMagic guards against decoding garbage as a scene.
const sceneMagic = 0x52415645 // "RAVE"

// WriteScene serializes a full scene snapshot — what a render service
// bootstraps from (Table 5's "service bootstrap" payload).
func WriteScene(out io.Writer, s *scene.Scene) error {
	w := newWriter(out)
	w.u32(sceneMagic)
	w.u64(s.Version)
	var writeNode func(n *scene.Node)
	writeNode = func(n *scene.Node) {
		w.u64(uint64(n.ID))
		w.str(n.Name)
		w.mat4(n.Transform)
		writePayload(w, n.Payload)
		w.u32(uint32(len(n.Children)))
		for _, c := range n.Children {
			writeNode(c)
		}
	}
	writeNode(s.Root)
	return w.flush()
}

// ReadScene reconstructs a scene snapshot.
func ReadScene(in io.Reader) (*scene.Scene, error) {
	r := newReader(in)
	if magic := r.u32(); r.err == nil && magic != sceneMagic {
		return nil, fmt.Errorf("marshal: bad scene magic %#x", magic)
	}
	version := r.u64()

	type rawNode struct {
		node     *scene.Node
		children uint32
	}
	var readNode func() *rawNode
	readNode = func() *rawNode {
		if r.err != nil {
			return nil
		}
		n := &scene.Node{
			ID:        scene.NodeID(r.u64()),
			Name:      r.str(),
			Transform: r.mat4(),
			Payload:   readPayload(r),
		}
		return &rawNode{node: n, children: r.u32()}
	}

	root := readNode()
	if r.err != nil {
		return nil, r.err
	}
	if root.node.ID != scene.RootID {
		return nil, fmt.Errorf("marshal: scene root has ID %d", root.node.ID)
	}
	s := scene.New()
	s.Root.Name = root.node.Name
	s.Root.Transform = root.node.Transform
	s.Root.Payload = root.node.Payload
	s.Version = version

	var attachChildren func(parent scene.NodeID, count uint32) error
	attachChildren = func(parent scene.NodeID, count uint32) error {
		if count > 1<<24 {
			return fmt.Errorf("marshal: node claims %d children", count)
		}
		for i := uint32(0); i < count; i++ {
			rn := readNode()
			if r.err != nil {
				return r.err
			}
			if err := s.Attach(parent, rn.node); err != nil {
				return err
			}
			if err := attachChildren(rn.node.ID, rn.children); err != nil {
				return err
			}
		}
		return nil
	}
	if err := attachChildren(scene.RootID, root.children); err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, r.err
	}
	return s, nil
}

// --- ops ---

// WriteOp serializes one update op.
func WriteOp(out io.Writer, op scene.Op) error {
	w := newWriter(out)
	w.u8(uint8(op.Kind()))
	switch o := op.(type) {
	case *scene.AddNodeOp:
		w.u64(uint64(o.Parent))
		w.u64(uint64(o.ID))
		w.str(o.Name)
		w.mat4(o.Transform)
		writePayload(w, o.Payload)
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
		writePayload(w, o.Payload)
	default:
		return fmt.Errorf("marshal: unknown op type %T", op)
	}
	return w.flush()
}

// ReadOp deserializes one update op.
func ReadOp(in io.Reader) (scene.Op, error) {
	r := newReader(in)
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
			Payload:   readPayload(r),
		}
	case scene.OpRemoveNode:
		op = &scene.RemoveNodeOp{ID: scene.NodeID(r.u64())}
	case scene.OpSetTransform:
		op = &scene.SetTransformOp{ID: scene.NodeID(r.u64()), Transform: r.mat4()}
	case scene.OpSetName:
		op = &scene.SetNameOp{ID: scene.NodeID(r.u64()), Name: r.str()}
	case scene.OpSetPayload:
		op = &scene.SetPayloadOp{ID: scene.NodeID(r.u64()), Payload: readPayload(r)}
	default:
		return nil, fmt.Errorf("marshal: unknown op kind %d", kind)
	}
	if r.err != nil {
		return nil, r.err
	}
	return op, nil
}
