package objply

import (
	"bytes"
	"testing"

	"repro/internal/geom/genmodel"
	"repro/internal/mathx"
)

// FuzzReadOBJ feeds ReadOBJ the bytes a `-model file.obj` flag reads off
// disk. Whatever the input, it must not panic; a mesh it accepts must
// pass Validate; and the mesh can be no larger than the text that named
// it: every vertex takes a "v x y z" line of at least seven bytes, and a
// face of k references takes at least 2k+1 bytes for its 3(k-2) indices.
func FuzzReadOBJ(f *testing.F) {
	var valid bytes.Buffer
	sphere := genmodel.Sphere(mathx.Vec3{}, 1, 6, 4)
	sphere.ComputeNormals()
	if err := WriteOBJ(&valid, sphere); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte("v 0 0 0 1 0 0\nv 1 0 0 0 1 0\nv 1 1 0 0 0 1\nv 0 1 0 1 1 1\nf 1 2 3 4\n"))              // polygon, coloured
	f.Add([]byte("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf -3//-1 -2//-1 -1//-1\n"))                        // relative indices
	f.Add([]byte("vn 0 0 1\nvn 0 1 0\n# normals and no vertex\n"))                                        // normal-only
	f.Add([]byte("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1/1/1 2/2/1 3/3/1\r\nusemtl x\ns off\ng grp\n")) // texture refs, ignored lines
	f.Add([]byte("f 1 2 3\nv nan inf -inf\n\x00\xff garbage \t\n"))                                       // garbage
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadOBJ(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted a mesh that fails Validate: %v", err)
		}
		if n := len(m.Positions); n > len(data)/7 {
			t.Fatalf("%d vertices from %d bytes", n, len(data))
		}
		if n := len(m.Indices); 2*n > 3*len(data) {
			t.Fatalf("%d indices from %d bytes", n, len(data))
		}
	})
}
