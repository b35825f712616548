package perfmodel

import (
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/geom"
	"repro/internal/geom/genmodel"
	"repro/internal/geom/objply"
	"repro/internal/marshal"
	"repro/internal/mathx"
	"repro/internal/netsim"
)

// ModelRow is one row of Table 1 (models used in benchmarks).
type ModelRow struct {
	Name      string
	Triangles int
	OBJBytes  int64
	// PaperTriangles and PaperBytes are the published values.
	PaperTriangles int
	PaperBytes     int64
}

// Table1 generates the two benchmark models at scale (1 = the paper's
// full polygon counts; tests use smaller scales) and measures their
// actual Wavefront OBJ sizes.
func Table1(scale float64) ([]ModelRow, error) {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	rows := []ModelRow{
		{Name: "Skeletal Hand", PaperTriangles: genmodel.PaperHandTriangles, PaperBytes: 20 << 20},
		{Name: "Skeleton", PaperTriangles: genmodel.PaperSkeletonTriangles, PaperBytes: 75 << 20},
	}
	gens := []func(int) *geom.Mesh{genmodel.SkeletalHand, genmodel.Skeleton}
	for i := range rows {
		target := int(float64(rows[i].PaperTriangles) * scale)
		mesh := gens[i](target)
		rows[i].Triangles = mesh.TriangleCount()
		// The paper's converted OBJ files carry positions and faces only,
		// with scanner-precision coordinates; match that layout when
		// measuring size.
		export := &geom.Mesh{Positions: make([]mathx.Vec3, len(mesh.Positions)), Indices: mesh.Indices}
		for j, p := range mesh.Positions {
			export.Positions[j] = mathx.V3(quant(p.X), quant(p.Y), quant(p.Z))
		}
		var cw marshal.CountWriter
		if err := objply.WriteOBJ(&cw, export); err != nil {
			return nil, err
		}
		// Scale the measured size back up so the row reports the
		// full-size file even when generated at reduced scale.
		rows[i].OBJBytes = int64(float64(cw.N) / scale)
	}
	return rows, nil
}

// quant rounds a coordinate to scanner precision (1e-4 units).
func quant(v float64) float64 { return float64(int64(v*10000+0.5)) / 10000 }

// PDARow is one row of Table 2 (visualization timings using a PDA).
type PDARow struct {
	Model        string
	Triangles    int
	FPS          float64
	TotalLatency time.Duration
	ImageReceipt time.Duration
	RenderTime   time.Duration
	Other        time.Duration
	// Paper values for the same row.
	PaperFPS                                            float64
	PaperLatency, PaperReceipt, PaperRender, PaperOther float64
}

// Table2 models the PDA experiment: the Centrino laptop renders for a
// Zaurus thin client over 11 Mbit wireless, 200x200x24bpp uncompressed
// frames (120 kB each).
func Table2() []PDARow {
	link := netsim.Wireless11(1)
	rows := []PDARow{
		{Model: "Skeletal Hand", Triangles: genmodel.PaperHandTriangles,
			PaperFPS: 2.9, PaperLatency: 0.339, PaperReceipt: 0.201, PaperRender: 0.091, PaperOther: 0.047},
		{Model: "Skeleton", Triangles: genmodel.PaperSkeletonTriangles,
			PaperFPS: 1.6, PaperLatency: 0.598, PaperReceipt: 0.194, PaperRender: 0.355, PaperOther: 0.049},
	}
	const w, h = 200, 200
	frameBytes := w * h * 3
	for i := range rows {
		render := device.CentrinoLaptop.OnScreenTime(device.Workload{
			Triangles:   rows[i].Triangles,
			BatchWeight: device.WeightHand,
			Pixels:      w * h,
		})
		receipt := link.TransferTime(frameBytes)
		other := time.Duration(ClientOverheadSeconds * float64(time.Second))
		total := render + receipt + other
		rows[i].RenderTime = render
		rows[i].ImageReceipt = receipt
		rows[i].Other = other
		rows[i].TotalLatency = total
		rows[i].FPS = float64(time.Second) / float64(total)
	}
	return rows
}

// datasets used by Tables 3 and 4 (§5.4).
type offscreenDataset struct {
	name   string
	tris   int
	weight float64
}

func table34Datasets() []offscreenDataset {
	return []offscreenDataset{
		{"Elle (50kpoly)", genmodel.PaperElleTriangles, device.WeightElle},
		{"Galleon (5.5kpoly)", genmodel.PaperGalleonTriangles, device.WeightGalleon},
	}
}

func table34Devices() []device.Profile {
	return []device.Profile{device.CentrinoLaptop, device.AthlonDesktop, device.SunV880z}
}

// OffscreenRow is one cell of Table 3: off-screen render speed as a
// percentage of on-screen, for a 400x400 image.
type OffscreenRow struct {
	Dataset string
	Device  string
	Ratio   float64 // modeled off-screen / on-screen speed
	Paper   float64 // the paper's percentage / 100
}

// Table3 models off-screen render timings at 400x400.
func Table3() []OffscreenRow {
	paper := map[string]map[string]float64{
		"Elle (50kpoly)": {
			device.CentrinoLaptop.Name: 0.35,
			device.AthlonDesktop.Name:  0.40,
			device.SunV880z.Name:       0.03,
		},
		"Galleon (5.5kpoly)": {
			device.CentrinoLaptop.Name: 0.09,
			device.AthlonDesktop.Name:  0.09,
			device.SunV880z.Name:       0.16,
		},
	}
	var rows []OffscreenRow
	for _, ds := range table34Datasets() {
		for _, dev := range table34Devices() {
			w := device.Workload{Triangles: ds.tris, BatchWeight: ds.weight, Pixels: 400 * 400}
			rows = append(rows, OffscreenRow{
				Dataset: ds.name,
				Device:  dev.Name,
				Ratio:   dev.OffScreenRatio(w),
				Paper:   paper[ds.name][dev.Name],
			})
		}
	}
	return rows
}

// BatchRow is one cell of Table 4: sequential and interleaved off-screen
// rendering of four 200x200 images, as fractions of on-screen speed.
type BatchRow struct {
	Dataset     string
	Device      string
	Sequential  float64
	Interleaved float64
	PaperSeq    float64
	PaperInt    float64
}

// Table4 models the sequential-vs-interleaved experiment.
func Table4() []BatchRow {
	paperSeq := map[string]map[string]float64{
		"Elle (50kpoly)": {
			device.CentrinoLaptop.Name: 0.55,
			device.AthlonDesktop.Name:  0.51,
			device.SunV880z.Name:       0.03,
		},
		"Galleon (5.5kpoly)": {
			device.CentrinoLaptop.Name: 0.09,
			device.AthlonDesktop.Name:  0.11,
			device.SunV880z.Name:       0.30,
		},
	}
	paperInt := map[string]map[string]float64{
		"Elle (50kpoly)": {
			device.CentrinoLaptop.Name: 0.90,
			device.AthlonDesktop.Name:  0.90,
			device.SunV880z.Name:       0.04,
		},
		"Galleon (5.5kpoly)": {
			device.CentrinoLaptop.Name: 0.33,
			device.AthlonDesktop.Name:  0.41,
			device.SunV880z.Name:       0.48,
		},
	}
	var rows []BatchRow
	for _, ds := range table34Datasets() {
		for _, dev := range table34Devices() {
			w := device.Workload{Triangles: ds.tris, BatchWeight: ds.weight, Pixels: 200 * 200}
			rows = append(rows, BatchRow{
				Dataset:     ds.name,
				Device:      dev.Name,
				Sequential:  dev.BatchRatio(w, 4, false),
				Interleaved: dev.BatchRatio(w, 4, true),
				PaperSeq:    paperSeq[ds.name][dev.Name],
				PaperInt:    paperInt[ds.name][dev.Name],
			})
		}
	}
	return rows
}

// RecruitRow is one row of Table 5 (UDDI recruitment and service
// bootstrap timings).
type RecruitRow struct {
	Model     string
	FileMB    float64
	UDDIScan  time.Duration
	UDDIFull  time.Duration
	Bootstrap time.Duration
	// SOAP call counts measured from the real uddi.Proxy implementation.
	ScanCalls, FullCalls int
	// Paper values.
	PaperScan, PaperFull, PaperBootstrap float64
}

// Table5 models UDDI recruitment: the SOAP call counts come from running
// the real registry + proxy (see CountUDDICalls), and each call is
// charged the 2004 middleware cost; the service bootstrap pays instance
// creation plus introspection marshalling of the model file.
func Table5(scanCalls, fullCalls int) ([]RecruitRow, error) {
	models := []RecruitRow{
		{Model: "Galleon", FileMB: 0.3, PaperScan: 0.73, PaperFull: 4.8, PaperBootstrap: 10.5},
		{Model: "Skeletal Hand", FileMB: 20, PaperScan: 0.70, PaperFull: 4.2, PaperBootstrap: 68.2},
	}
	for i := range models {
		models[i].ScanCalls = scanCalls
		models[i].FullCalls = fullCalls
		models[i].UDDIScan = secsDur(float64(scanCalls) * SOAPCallSeconds)
		models[i].UDDIFull = secsDur(ProxyInitSeconds + float64(fullCalls)*SOAPCallSeconds)
		models[i].Bootstrap = secsDur(ServiceCreateSeconds + models[i].FileMB*IntrospectionSecondsPerMB)
	}
	return models, nil
}

func secsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// String renders Table 1.
func FormatTable1(rows []ModelRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Name,
			fmt.Sprintf("%.2fM (paper %.2fM)", float64(r.Triangles)/1e6, float64(r.PaperTriangles)/1e6),
			fmt.Sprintf("%.0fMB (paper %dMB)", float64(r.OBJBytes)/(1<<20), r.PaperBytes>>20),
		})
	}
	return FormatTable([]string{"Model", "Polygons", "OBJ size"}, out)
}

// FormatTable2 renders Table 2.
func FormatTable2(rows []PDARow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Model,
			fmt.Sprintf("%.2fM", float64(r.Triangles)/1e6),
			fmt.Sprintf("%.1f (%.1f)", r.FPS, r.PaperFPS),
			fmt.Sprintf("%.3fs (%.3f)", r.TotalLatency.Seconds(), r.PaperLatency),
			fmt.Sprintf("%.3fs (%.3f)", r.ImageReceipt.Seconds(), r.PaperReceipt),
			fmt.Sprintf("%.3fs (%.3f)", r.RenderTime.Seconds(), r.PaperRender),
			fmt.Sprintf("%.3fs (%.3f)", r.Other.Seconds(), r.PaperOther),
		})
	}
	return FormatTable(
		[]string{"Model", "Polygons", "FPS (paper)", "Latency", "Receipt", "Render", "Other"},
		out)
}

// FormatTable3 renders Table 3.
func FormatTable3(rows []OffscreenRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Dataset, r.Device,
			fmt.Sprintf("%2.0f%% (paper %2.0f%%)", r.Ratio*100, r.Paper*100),
		})
	}
	return FormatTable([]string{"Dataset", "Device", "Off-screen speed"}, out)
}

// FormatTable4 renders Table 4.
func FormatTable4(rows []BatchRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Dataset, r.Device,
			fmt.Sprintf("seq %2.0f%% (paper %2.0f%%)", r.Sequential*100, r.PaperSeq*100),
			fmt.Sprintf("int %2.0f%% (paper %2.0f%%)", r.Interleaved*100, r.PaperInt*100),
		})
	}
	return FormatTable([]string{"Dataset", "Device", "Sequential", "Interleaved"}, out)
}

// FormatTable5 renders Table 5.
func FormatTable5(rows []RecruitRow) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Model,
			fmt.Sprintf("%.1fMB", r.FileMB),
			fmt.Sprintf("%.2fs (paper %.2fs), %d calls", r.UDDIScan.Seconds(), r.PaperScan, r.ScanCalls),
			fmt.Sprintf("%.1fs (paper %.1fs), %d calls", r.UDDIFull.Seconds(), r.PaperFull, r.FullCalls),
			fmt.Sprintf("%.1fs (paper %.1fs)", r.Bootstrap.Seconds(), r.PaperBootstrap),
		})
	}
	return FormatTable([]string{"Model", "File", "UDDI scan", "UDDI full bootstrap", "Service bootstrap"}, out)
}
