// Package objply reads and writes triangle meshes as Wavefront OBJ, the
// format the paper's models were imported into the data service in (they
// arrived as PLY and were converted first; the package keeps that
// workflow's name). It handles the subset those models use: positions,
// normals, vertex colors and triangle/polygon faces (polygons are
// fan-triangulated on import).
package objply

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/mathx"
)

// WriteOBJ serializes the mesh as Wavefront OBJ. Normals are emitted when
// present; colors are emitted as the non-standard (but widely supported)
// "v x y z r g b" extension when present.
func WriteOBJ(w io.Writer, m *geom.Mesh) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	fmt.Fprintf(bw, "# RAVE OBJ export: %d vertices, %d triangles\n",
		m.VertexCount(), m.TriangleCount())
	for i, p := range m.Positions {
		if m.Colors != nil {
			c := m.Colors[i]
			fmt.Fprintf(bw, "v %g %g %g %g %g %g\n", p.X, p.Y, p.Z, c.X, c.Y, c.Z)
		} else {
			fmt.Fprintf(bw, "v %g %g %g\n", p.X, p.Y, p.Z)
		}
	}
	for _, n := range m.Normals {
		fmt.Fprintf(bw, "vn %g %g %g\n", n.X, n.Y, n.Z)
	}
	hasNormals := m.Normals != nil
	for i := 0; i < m.TriangleCount(); i++ {
		a := m.Indices[3*i] + 1
		b := m.Indices[3*i+1] + 1
		c := m.Indices[3*i+2] + 1
		if hasNormals {
			fmt.Fprintf(bw, "f %d//%d %d//%d %d//%d\n", a, a, b, b, c, c)
		} else {
			fmt.Fprintf(bw, "f %d %d %d\n", a, b, c)
		}
	}
	return bw.Flush()
}

// ReadOBJ parses a Wavefront OBJ stream. Faces with more than three
// vertices are fan-triangulated. Vertex normals are taken from "vn" lines
// when every face references them; colors from the 6-float "v" extension.
func ReadOBJ(r io.Reader) (*geom.Mesh, error) {
	m := &geom.Mesh{}
	var normals []mathx.Vec3
	var colors []mathx.Vec3
	sawColor := false
	// Maps face normal references onto per-vertex normals. OBJ allows a
	// vertex to appear with different normals in different faces; the
	// last one wins, which is fine for the smooth-shaded models RAVE uses.
	vertNormal := map[uint32]int{}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "v":
			if len(fields) < 4 {
				return nil, fmt.Errorf("objply: line %d: short vertex", lineNo)
			}
			var vals [6]float64
			n := len(fields) - 1
			if n > 6 {
				n = 6
			}
			for i := 0; i < n; i++ {
				v, err := strconv.ParseFloat(fields[i+1], 64)
				if err != nil {
					return nil, fmt.Errorf("objply: line %d: %v", lineNo, err)
				}
				vals[i] = v
			}
			m.Positions = append(m.Positions, mathx.V3(vals[0], vals[1], vals[2]))
			if n >= 6 {
				sawColor = true
				colors = append(colors, mathx.V3(vals[3], vals[4], vals[5]))
			} else {
				colors = append(colors, mathx.Vec3{})
			}
		case "vn":
			if len(fields) < 4 {
				return nil, fmt.Errorf("objply: line %d: short normal", lineNo)
			}
			var vals [3]float64
			for i := 0; i < 3; i++ {
				v, err := strconv.ParseFloat(fields[i+1], 64)
				if err != nil {
					return nil, fmt.Errorf("objply: line %d: %v", lineNo, err)
				}
				vals[i] = v
			}
			normals = append(normals, mathx.V3(vals[0], vals[1], vals[2]))
		case "f":
			if len(fields) < 4 {
				return nil, fmt.Errorf("objply: line %d: face with <3 vertices", lineNo)
			}
			idx := make([]uint32, 0, len(fields)-1)
			for _, spec := range fields[1:] {
				vi, ni, err := parseFaceRef(spec, len(m.Positions), len(normals))
				if err != nil {
					return nil, fmt.Errorf("objply: line %d: %v", lineNo, err)
				}
				if ni >= 0 {
					vertNormal[vi] = ni
				}
				idx = append(idx, vi)
			}
			for i := 1; i+1 < len(idx); i++ {
				m.Indices = append(m.Indices, idx[0], idx[i], idx[i+1])
			}
		default:
			// Ignore unsupported directives (o, g, s, usemtl, ...).
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("objply: %w", err)
	}
	if len(vertNormal) == len(m.Positions) && len(m.Positions) > 0 {
		m.Normals = make([]mathx.Vec3, len(m.Positions))
		for vi, ni := range vertNormal {
			m.Normals[vi] = normals[ni]
		}
	}
	if sawColor {
		m.Colors = colors
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// parseFaceRef parses one face vertex spec ("7", "7/2", "7//3", "7/2/3"),
// resolving negative (relative) indices, and returns 0-based vertex and
// normal indices (normal -1 when absent).
func parseFaceRef(spec string, nVerts, nNormals int) (uint32, int, error) {
	parts := strings.Split(spec, "/")
	vi, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, -1, fmt.Errorf("bad face index %q", spec)
	}
	if vi < 0 {
		vi = nVerts + vi + 1
	}
	if vi < 1 || vi > nVerts {
		return 0, -1, fmt.Errorf("face index %d out of range (1..%d)", vi, nVerts)
	}
	ni := -1
	if len(parts) == 3 && parts[2] != "" {
		n, err := strconv.Atoi(parts[2])
		if err != nil {
			return 0, -1, fmt.Errorf("bad normal index %q", spec)
		}
		if n < 0 {
			n = nNormals + n + 1
		}
		if n < 1 || n > nNormals {
			return 0, -1, fmt.Errorf("normal index %d out of range (1..%d)", n, nNormals)
		}
		ni = n - 1
	}
	return uint32(vi - 1), ni, nil
}
