package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/renderservice"
)

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	// blocks above 0 runs that many timed blocks (and, traced, as many
	// traced ones again) instead of filling seconds.
	blocks int
	setups int
	// ops above 0 overrides the workload's block size.
	ops     int
	scratch string
	// corruptOp, when not negative, flips a byte of that op's frame in
	// the first timed block: the test that the gate notices.
	corruptOp int
}

// setupKernelSamples is how many times the kernels run before and
// again after each set-up, to give it a speed index of its own.
const setupKernelSamples = 3

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// result is the document a run prints: every metric by name, with the
// machine it came from.
type result struct {
	Workload    string            `json:"workload"`
	Traced      bool              `json:"traced"`
	Env         envStamp          `json:"env"`
	Blocks      int               `json:"blocks"`
	OpsPerBlock int               `json:"ops_per_block"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Failures    []string          `json:"failures,omitempty"`
	Checksums   string            `json:"checksum_digest"`
	RefDiffMax  int               `json:"reference_diff_pixels_max"`
	TraceFile   string            `json:"trace_file,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	// BlockDetail is every timed block as measured, with the kernel
	// times it was scaled by: the data behind the medians.
	BlockDetail []blockDetail `json:"block_detail"`
}

type blockDetail struct {
	Traced        bool    `json:"traced"`
	SpeedIndex    float64 `json:"speed_index"`
	AluMs         float64 `json:"kernel_alu_ms"`
	MemMs         float64 `json:"kernel_mem_ms"`
	RawOpMsP50    float64 `json:"raw_op_ms_p50"`
	RawOpMsP90    float64 `json:"raw_op_ms_p90"`
	RawOpsPerS    float64 `json:"raw_ops_per_s"`
	RawCPUMsPerOp float64 `json:"raw_cpu_ms_per_op"`
}

// tally is what the timed blocks of a run measured.
type tally struct {
	plain, traced []blockStats
	// index is each block's speed index, for scaling its spans.
	index map[int]float64
	// Per plain block: allocation and GC per op.
	allocKB, mallocs, gcPerKop []float64
	// Per block: how long its end (replica convergence) took.
	convergeMs []float64
	// Per traced op: accounted time ÷ op time. Per op that committed
	// moves: one move's commit time.
	accounted, commitUs []float64
	detail              []blockDetail
}

// run performs one benchmark run: cold set-ups, a warm-up block that
// teaches the gate, then timed blocks.
func run(cfg config) (*result, error) {
	k := newKernels()
	g := &gate{}
	w, setupS, setupRawS, err := setUp(cfg, k, g)
	if err != nil {
		return nil, err
	}
	defer func() {
		if w != nil {
			w.close()
		}
	}()

	n := w.ops()
	g.ref = renderservice.New(renderservice.Config{Name: "reference", Device: renderDevice, Workers: thinWorkers})
	g.scene = w.deployment().sess.Snapshot()
	g.allowed = w.allowedDiff()
	g.golden = make([]uint64, n)

	var tr *tracer
	if cfg.traced {
		if err := w.startTrace(); err != nil {
			return nil, fmt.Errorf("trace set-up: %w", err)
		}
		tr = newTracer()
	}

	// Warm-up block: untimed; every op is checked against the reference.
	for i := 0; i < n; i++ {
		g.check(w, i, w.do(i), true)
	}
	if err := w.endBlock(); err != nil {
		g.fail("warm-up block end: %v", err)
	}
	g.checkBlock(w, true)
	warmFailed := g.failed
	runtime.GC()

	t := timeBlocks(cfg, w, g, newMeter(k), tr)

	r := w.deployment()
	declined := r.declined()
	if declined > 0 {
		g.fail("render services declined %d requests", declined)
	}
	var registerMs []float64
	if cfg.traced {
		if registerMs, err = probeRegistry(r); err != nil {
			return nil, err
		}
	}
	closing := w
	w = nil
	if err := closing.close(); err != nil {
		g.fail("exit check: %v", err)
	}

	res := &result{
		Workload: cfg.workload, Traced: cfg.traced,
		Env:         stampEnv(cfg.seed, cfg.scratch),
		Blocks:      len(t.plain) + len(t.traced),
		OpsPerBlock: n,
		Correct:     g.failed == 0,
		Attempted:   g.attempted,
		Failed:      g.failed,
		Failures:    g.failures,
		Checksums:   g.digest(),
		RefDiffMax:  g.maxDiff,
		Metrics:     map[string]metric{},
		BlockDetail: t.detail,
	}
	set := func(name, unit string, v float64, samples int) {
		res.Metrics[name] = metric{Value: v, Unit: unit, Samples: samples}
	}
	set("setup_s", "s", median(setupS), len(setupS))
	set("raw.setup_s", "s", median(setupRawS), len(setupRawS))
	set("peak_rss_mb", "MB", peakRSSMB(), 1)
	timed := g.attempted - n // ops after the warm-up block
	set("diag.fail_share", "share", float64(g.failed-warmFailed)/float64(max(1, timed)), timed)
	set("dataservice.hedged_total", "count", float64(g.hedged), 1)
	set("dataservice.degraded_total", "count", float64(g.degraded), 1)
	set("renderservice.declined_total", "count", float64(declined), 1)
	blockMetrics(t, n, set)
	if cfg.traced {
		if err := tracedMetrics(t, tr, r, registerMs, set); err != nil {
			return nil, err
		}
		res.TraceFile = filepath.Join(cfg.scratch, "trace-"+cfg.workload+".json")
		if err := tr.write(res.TraceFile); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setUp times cfg.setups full cold builds of the deployment, each up to
// its first answered op and torn down before the next; the last one
// stays up and is returned. Kernel samples on both sides of a set-up
// give it a speed index of its own.
func setUp(cfg config, k *kernels, g *gate) (w workload, setupS, setupRawS []float64, err error) {
	for s := 0; s < cfg.setups; s++ {
		if w != nil {
			if err := w.close(); err != nil {
				g.fail("tear-down after set-up %d: %v", s, err)
			}
		}
		runtime.GC()
		var alu, mem []float64
		sample := func() {
			for j := 0; j < setupKernelSamples; j++ {
				a, m := k.sample()
				alu, mem = append(alu, a), append(mem, m)
			}
		}
		sample()
		t0 := time.Now()
		if w, err = newWorkload(cfg.workload, cfg.seed, cfg.ops, cfg.scratch); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if first := w.do(0); first.err != nil {
			w.close()
			return nil, nil, nil, fmt.Errorf("set-up: first op: %w", first.err)
		}
		d := time.Since(t0).Seconds()
		sample()
		setupRawS = append(setupRawS, d)
		setupS = append(setupS, d*speedIndex(median(alu), median(mem)))
	}
	return w, setupS, setupRawS, nil
}

// timeBlocks runs timed blocks until cfg.seconds have passed (or
// cfg.blocks are done). A traced run spends its first third on plain
// blocks, the baseline tracing's overhead is measured against, and the
// rest on traced ones.
func timeBlocks(cfg config, w workload, g *gate, m *meter, tr *tracer) *tally {
	t := &tally{index: map[int]float64{}}
	n := w.ops()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	began := time.Now()
	for b := 0; ; b++ {
		spent := time.Since(began)
		var traceThis bool
		if cfg.blocks > 0 {
			last := cfg.blocks
			if cfg.traced {
				last *= 2
			}
			if b >= last {
				break
			}
			traceThis = cfg.traced && b >= cfg.blocks
		} else {
			if spent >= budget && b > 0 && (!cfg.traced || len(t.traced) > 0) {
				break
			}
			traceThis = cfg.traced && b > 0 && spent >= budget/3
		}

		var ms0 runtime.MemStats
		if !traceThis {
			runtime.ReadMemStats(&ms0)
		}
		if tr != nil {
			tr.block = b
		}
		var commitUs []float64
		m.begin()
		for i := 0; i < n; i++ {
			var r opResult
			start, d := m.op(func() { r = w.do(i) })
			m.pause(func() {
				if b == 0 && i == cfg.corruptOp && r.frame != nil {
					r.frame.Color[0] ^= 0xff
				}
				g.check(w, i, r, false)
				if r.commit > 0 {
					commitUs = append(commitUs, ms(r.commit)*1000)
				}
				if traceThis {
					tr.op = i
					root := tr.add(0, "op", cfg.workload, start, d)
					if acc := w.replay(i, r, tr, root); d > 0 {
						t.accounted = append(t.accounted, float64(acc)/float64(d))
					}
				}
			})
			m.tick()
		}
		t0 := time.Now()
		if err := w.endBlock(); err != nil {
			g.fail("block %d end: %v", b, err)
		}
		converge := ms(time.Since(t0))
		blk := m.end()
		st := blk.stats()

		t.index[b] = st.speedIndex
		t.convergeMs = append(t.convergeMs, converge*st.speedIndex)
		for _, us := range commitUs {
			t.commitUs = append(t.commitUs, us*st.speedIndex)
		}
		if traceThis {
			t.traced = append(t.traced, st)
		} else {
			var ms1 runtime.MemStats
			runtime.ReadMemStats(&ms1)
			ops := float64(n)
			t.allocKB = append(t.allocKB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/ops)
			t.mallocs = append(t.mallocs, float64(ms1.Mallocs-ms0.Mallocs)/ops)
			t.gcPerKop = append(t.gcPerKop, float64(ms1.NumGC-ms0.NumGC)/ops*1000)
			t.plain = append(t.plain, st)
		}
		t.detail = append(t.detail, blockDetail{
			Traced: traceThis, SpeedIndex: st.speedIndex, AluMs: st.aluMs, MemMs: st.memMs,
			RawOpMsP50: st.rawP50, RawOpMsP90: st.rawP90, RawOpsPerS: st.rawOpsPerS, RawCPUMsPerOp: st.rawCPUMsPerOp,
		})
		g.checkBlock(w, false)
	}
	return t
}
