package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/wsdl"
)

// endToEndBounds are the metrics a user of the system sees, printed by
// an untraced run, each with the share of its median by which it may
// get worse before a change counts as a regression. BENCHMARK.json
// states the same bounds; bench_test.go holds the two together. Each
// bound is about three times the widest spread ten runs of unchanged
// code showed on any workload (README.md, "A/A"). op_ms_p90 is not
// here: its spread reached 15 % on a restless host, so it is reported
// as diag.op_ms_p90 and gates nothing.
var endToEndBounds = []struct {
	name, unit, better string
	bound              float64
}{
	{"op_ms_p50", "ms", "lower", 0.15},
	{"ops_per_s", "1/s", "higher", 0.15},
	{"cpu_ms_per_op", "ms", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// layerTimings are the per-layer self times a traced run reports as
// "<layer>.<call>_<unit>_p50". A layer that a workload does not use
// reads 0 there.
var layerTimings = []struct{ key, unit string }{
	{"client.decode", "ms"},
	{"imgcodec.encode", "ms"},
	{"imgcodec.decode", "ms"},
	{"renderservice.encode", "ms"},
	{"renderservice.render_frame", "ms"},
	{"renderservice.render_tile", "ms"},
	{"renderservice.render_subset", "ms"},
	{"raster.render", "ms"},
	{"transport.frame_rtt", "ms"},
	{"transport.scene_rtt", "ms"},
	{"marshal.frame_write", "ms"},
	{"marshal.frame_read", "ms"},
	{"marshal.scene_write", "ms"},
	{"marshal.scene_read", "ms"},
	{"compositor.assemble", "ms"},
	{"compositor.depth_composite", "ms"},
	{"scene.extract_subset", "ms"},
	{"dataservice.camera_fanout", "ms"},
	{"balance.distribute_tiles", "us"},
	{"balance.distribute_nodes", "us"},
	{"scene.apply_op", "us"},
	{"marshal.op_write", "us"},
	{"marshal.op_read", "us"},
	{"wal.append", "us"},
	{"wal.append_mem", "us"},
	{"transport.msg_rtt", "us"},
	{"renderservice.apply_op", "us"},
	{"scene.apply_payload", "ms"},
	{"marshal.payload_write", "ms"},
	{"marshal.payload_read", "ms"},
	{"wal.append_payload", "ms"},
	{"transport.payload_rtt", "ms"},
	{"renderservice.apply_payload", "ms"},
}

// layerCounts are the per-op quantities counted at the same boundaries.
var layerCounts = []struct{ name, unit string }{
	{"imgcodec.bytes_per_frame", "bytes"},
	{"raster.triangles_per_op", "count"},
	{"raster.pixels_per_op", "count"},
	{"transport.bytes_per_op", "bytes"},
	{"marshal.scene_bytes", "bytes"},
	{"wal.bytes_per_op", "bytes"},
}

// perLayer lists every metric a traced run prints.
func perLayer() []string {
	var names []string
	for _, lt := range layerTimings {
		names = append(names, lt.key+"_"+lt.unit+"_p50")
	}
	for _, lc := range layerCounts {
		names = append(names, lc.name)
	}
	return append(names,
		"dataservice.apply_update_us_p50", "dataservice.converge_ms_p50",
		"dataservice.hedged_total", "dataservice.degraded_total", "renderservice.declined_total",
		"uddi.register_ms_p50", "uddi.scan_ms_p50", "core.bootstrap_ms_p50",
		"process.alloc_kb_per_op", "process.mallocs_per_op", "process.gc_per_kop",
		"budget.accounted_share", "trace.overhead_share",
		"host.speed_index", "host.kernel_alu_ms", "host.kernel_mem_ms",
		"raw.op_ms_p50", "raw.ops_per_s", "diag.op_ms_p90", "diag.op_ms_p99", "diag.fail_share",
	)
}

// blockMetrics reduces the timed blocks to a run's figures: medians
// over the plain blocks, at reference speed and as measured.
func blockMetrics(t *tally, opsPerBlock int, set func(name, unit string, v float64, samples int)) {
	over := func(sts []blockStats, f func(blockStats) float64) float64 {
		xs := make([]float64, len(sts))
		for i, s := range sts {
			xs[i] = f(s)
		}
		return median(xs)
	}
	nb := len(t.plain)
	ops := nb * opsPerBlock
	set("op_ms_p50", "ms", over(t.plain, func(s blockStats) float64 { return s.opMsP50 }), ops)
	set("ops_per_s", "1/s", over(t.plain, func(s blockStats) float64 { return s.opsPerS }), nb)
	set("cpu_ms_per_op", "ms", over(t.plain, func(s blockStats) float64 { return s.cpuMs }), nb)
	set("diag.op_ms_p90", "ms", over(t.plain, func(s blockStats) float64 { return s.opMsP90 }), ops)
	set("diag.op_ms_p99", "ms", over(t.plain, func(s blockStats) float64 { return s.opMsP99 }), ops)
	set("raw.op_ms_p50", "ms", over(t.plain, func(s blockStats) float64 { return s.rawP50 }), ops)
	set("raw.op_ms_p90", "ms", over(t.plain, func(s blockStats) float64 { return s.rawP90 }), ops)
	set("raw.ops_per_s", "1/s", over(t.plain, func(s blockStats) float64 { return s.rawOpsPerS }), nb)
	set("raw.cpu_ms_per_op", "ms", over(t.plain, func(s blockStats) float64 { return s.rawCPUMsPerOp }), nb)

	all := append(append([]blockStats(nil), t.plain...), t.traced...)
	set("host.speed_index", "ratio", over(all, func(s blockStats) float64 { return s.speedIndex }), len(all))
	set("host.kernel_alu_ms", "ms", over(all, func(s blockStats) float64 { return s.aluMs }), len(all))
	set("host.kernel_mem_ms", "ms", over(all, func(s blockStats) float64 { return s.memMs }), len(all))

	set("process.alloc_kb_per_op", "KB", median(t.allocKB), nb)
	set("process.mallocs_per_op", "count", median(t.mallocs), nb)
	set("process.gc_per_kop", "count", median(t.gcPerKop), nb)
	set("dataservice.converge_ms_p50", "ms", median(t.convergeMs), len(t.convergeMs))
	set("dataservice.apply_update_us_p50", "us", median(t.commitUs), len(t.commitUs))
}

// tracedMetrics adds what only a traced run knows: per-layer self
// times and counts from the spans, how much of an op the replays
// account for, what tracing cost, and the set-up steps' times.
func tracedMetrics(t *tally, tr *tracer, r *rig, registerMs []float64, set func(name, unit string, v float64, samples int)) error {
	self := tr.selfMs(t.index)
	for _, lt := range layerTimings {
		xs := self[lt.key]
		v := median(xs)
		if lt.unit == "us" {
			v *= 1000
		}
		set(lt.key+"_"+lt.unit+"_p50", lt.unit, v, len(xs))
	}
	for _, lc := range layerCounts {
		xs := tr.counts[lc.name]
		set(lc.name, lc.unit, median(xs), len(xs))
	}

	p50 := func(sts []blockStats) float64 {
		xs := make([]float64, len(sts))
		for i, s := range sts {
			xs[i] = s.opMsP50
		}
		return median(xs)
	}
	if p50(t.plain) <= 0 {
		return fmt.Errorf("traced run has no plain block to compare with")
	}
	set("trace.overhead_share", "share", p50(t.traced)/p50(t.plain)-1, len(t.traced))
	set("budget.accounted_share", "share", median(t.accounted), len(t.accounted))

	set("uddi.scan_ms_p50", "ms", median(r.scanMs), len(r.scanMs))
	set("core.bootstrap_ms_p50", "ms", median(r.bootstrapMs), len(r.bootstrapMs))
	set("uddi.register_ms_p50", "ms", median(registerMs), len(registerMs))
	return nil
}

// probeRegistry times publishing one more service in the deployment's
// registry, the SOAP exchange every service makes once at set-up; each
// probe is withdrawn again.
func probeRegistry(r *rig) ([]float64, error) {
	proxy := r.dep.Proxy()
	var out []float64
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		key, err := proxy.RegisterService(core.BusinessName, "bench-probe", "tcp://127.0.0.1:1", wsdl.RenderServicePortType)
		if err != nil {
			return nil, fmt.Errorf("registry probe: %w", err)
		}
		out = append(out, ms(time.Since(t0)))
		if err := proxy.Unregister(key); err != nil {
			return nil, fmt.Errorf("registry probe: %w", err)
		}
	}
	return out, nil
}
