package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// smallRun is a run short enough for go test: one set-up, one block of
// 12 ops (and, traced, one traced block more).
func smallRun(t *testing.T, workload string, traced bool) *result {
	t.Helper()
	res, err := run(config{
		workload: workload, seed: 7, traced: traced,
		blocks: 1, setups: 1, ops: 12,
		scratch: t.TempDir(), corruptOp: -1,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestWorkloadsReportEveryMetric runs each workload small and traced,
// then untraced, and holds the output against BENCHMARK.json: every
// workload and metric named there is printed with its unit, nothing
// fails, and the traced replays account for a sane share of an op.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloadNames) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bf.Workloads), len(workloadNames))
	}
	for _, wl := range bf.Workloads {
		wl := wl
		t.Run(wl.Name, func(t *testing.T) {
			if !nameRE.MatchString(wl.Name) {
				t.Errorf("workload name %q", wl.Name)
			}
			traced := smallRun(t, wl.Name, true)
			if !traced.Correct || traced.Failed != 0 || len(traced.Failures) != 0 {
				t.Fatalf("traced run failed %d of %d ops: %v", traced.Failed, traced.Attempted, traced.Failures)
			}
			sum, err := traced.summary()
			if err != nil {
				t.Fatal(err)
			}
			if len(sum.Metrics) != len(bf.PerLayer) {
				t.Errorf("traced run prints %d metrics, BENCHMARK.json lists %d per-layer metrics", len(sum.Metrics), len(bf.PerLayer))
			}
			for _, m := range bf.PerLayer {
				got, ok := sum.Metrics[m.Name]
				switch {
				case !nameRE.MatchString(m.Name):
					t.Errorf("metric name %q", m.Name)
				case !ok:
					t.Errorf("per-layer metric %s is not printed", m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s = %v", m.Name, got.Value)
				}
			}
			if v := sum.Metrics["diag.fail_share"].Value; v != 0 {
				t.Errorf("diag.fail_share = %v", v)
			}
			t.Logf("budget.accounted_share %.3f", sum.Metrics["budget.accounted_share"].Value)
			if v := sum.Metrics["budget.accounted_share"].Value; !(v > 0 && v <= 1.2) {
				t.Errorf("budget.accounted_share = %v, want within (0, 1.2]", v)
			}
			for _, name := range []string{"dataservice.hedged_total", "dataservice.degraded_total", "renderservice.declined_total"} {
				if v := sum.Metrics[name].Value; v != 0 {
					t.Errorf("%s = %v", name, v)
				}
			}
			if _, err := os.Stat(traced.TraceFile); err != nil {
				t.Errorf("trace file: %v", err)
			}

			plain := smallRun(t, wl.Name, false)
			if !plain.Correct {
				t.Fatalf("untraced run failed: %v", plain.Failures)
			}
			if plain.Checksums != traced.Checksums {
				t.Errorf("checksum digest %s untraced, %s traced: one seed must give one list", plain.Checksums, traced.Checksums)
			}
			sum, err = plain.summary()
			if err != nil {
				t.Fatal(err)
			}
			if len(sum.Metrics) != len(bf.EndToEnd) {
				t.Errorf("untraced run prints %d metrics, BENCHMARK.json lists %d end-to-end metrics", len(sum.Metrics), len(bf.EndToEnd))
			}
			for _, m := range bf.EndToEnd {
				got, ok := sum.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("end-to-end metric %s is not printed", m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
				case !(got.Value > 0):
					t.Errorf("%s = %v, want above 0", m.Name, got.Value)
				}
			}
			if plain.Env.Clock != "wall" || plain.Env.Seed != 7 || plain.Env.GoVersion == "" || plain.Env.WalFS == "" {
				t.Errorf("environment stamp incomplete: %+v", plain.Env)
			}
		})
	}
}

// TestBoundsMatchBenchmarkFile holds the bounds the A/A tool judges by
// to the ones the driver judges by.
func TestBoundsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.EndToEnd) != len(endToEndBounds) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bf.EndToEnd), len(endToEndBounds))
	}
	for i, want := range endToEndBounds {
		got := bf.EndToEnd[i]
		if got.Name != want.name || got.Unit != want.unit || got.Better != want.better || got.Bound != want.bound {
			t.Errorf("end_to_end[%d] = %+v, the benchmark has %+v", i, got, want)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
}

// TestCorruptedFrameTripsGate flips one byte of one timed frame.
func TestCorruptedFrameTripsGate(t *testing.T) {
	res, err := run(config{
		workload: "thin_orbit", seed: 7, blocks: 1, setups: 1, ops: 12,
		scratch: t.TempDir(), corruptOp: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("corrupted frame: correct=%v failed=%d, want one failed op", res.Correct, res.Failed)
	}
	if v := res.Metrics["diag.fail_share"].Value; v != 1.0/12 {
		t.Errorf("diag.fail_share = %v, want 1/12", v)
	}
}

func TestGateRejectsWrongChecksumAndErrors(t *testing.T) {
	w, err := newWorkload("thin_orbit", 3, 4, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	g := &gate{golden: make([]uint64, 4)}
	good := w.do(0)
	if good.err != nil {
		t.Fatal(good.err)
	}
	g.golden[0] = checksum(good.frame)
	g.check(w, 0, good, false)
	if g.failed != 0 {
		t.Fatalf("matching frame failed: %v", g.failures)
	}
	good.frame.Color[100] ^= 1
	g.check(w, 0, good, false)
	g.check(w, 1, opResult{err: os.ErrDeadlineExceeded}, false)
	g.check(w, 2, opResult{frame: good.frame, hedged: 1}, false)
	if g.failed != 3 || g.attempted != 4 {
		t.Errorf("failed %d of %d attempted, want 3 of 4: %v", g.failed, g.attempted, g.failures)
	}
}

func TestSpeedIndex(t *testing.T) {
	for _, c := range []struct{ alu, mem, want float64 }{
		{aluRefMs, memRefMs, 1},
		{2 * aluRefMs, 2 * memRefMs, 0.5}, // host at half speed
		{aluRefMs / 2, memRefMs / 2, 2},   // host at double speed
		{4 * aluRefMs, memRefMs, 0.5},     // geometric mean of 1/4 and 1
		{0, memRefMs, 1},                  // no sample
	} {
		if got := speedIndex(c.alu, c.mem); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("speedIndex(%v, %v) = %v, want %v", c.alu, c.mem, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("ten values: %v, %v, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5, 6})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("six values: %v, %v, want 1.75, 5.25", q1, q3)
	}
}

// fakeHost is a clock, CPU meter and kernel pair that only move when
// told to.
type fakeHost struct {
	t        time.Time
	cpu      time.Duration
	alu, mem float64
}

func (h *fakeHost) work(wall, cpu time.Duration) {
	h.t = h.t.Add(wall)
	h.cpu += cpu
}

// sample behaves like the real kernels: alu keeps both processors busy
// for its duration, mem one.
func (h *fakeHost) sample() (float64, float64) {
	alu := time.Duration(h.alu * float64(time.Millisecond))
	mem := time.Duration(h.mem * float64(time.Millisecond))
	h.work(alu+mem, benchProcs*alu+mem)
	return h.alu, h.mem
}

func fakeMeter(h *fakeHost) *meter {
	return &meter{
		now:    func() time.Time { return h.t },
		cpu:    func() time.Duration { return h.cpu },
		sample: h.sample,
	}
}

// TestMeterExcludesHarnessTime drives a block on a fake clock: kernel
// samples and paused work leave no trace in the block's elapsed and
// CPU time, and the kernels run once per 60 ms of work.
func TestMeterExcludesHarnessTime(t *testing.T) {
	h := &fakeHost{t: time.Unix(1000, 0), alu: 2 * aluRefMs, mem: 2 * memRefMs}
	m := fakeMeter(h)
	m.begin()
	for i := 0; i < 10; i++ {
		m.op(func() { h.work(20*time.Millisecond, 30*time.Millisecond) })
		m.pause(func() { h.work(5*time.Millisecond, 5*time.Millisecond) })
		m.tick()
	}
	b := m.end()
	if b.elapsed != 200*time.Millisecond {
		t.Errorf("elapsed %v, want 200ms", b.elapsed)
	}
	if b.cpu != 300*time.Millisecond {
		t.Errorf("cpu %v, want 300ms", b.cpu)
	}
	// One sample at begin, then one each time 60 ms have passed since
	// the last: after ops 3, 6 and 9 (25 ms of clock per op).
	if len(b.aluMs) != 4 || len(b.memMs) != 4 {
		t.Errorf("%d kernel samples, want 4", len(b.aluMs))
	}

	st := b.stats()
	if st.speedIndex != 0.5 {
		t.Fatalf("speed index %v, want 0.5", st.speedIndex)
	}
	// A host at half speed: timings halve, rates double.
	want := blockStats{
		speedIndex: 0.5, aluMs: 2 * aluRefMs, memMs: 2 * memRefMs,
		rawP50: 20, rawP90: 20, rawP99: 20, rawOpsPerS: 50, rawCPUMsPerOp: 30,
		opMsP50: 10, opMsP90: 10, opMsP99: 10, opsPerS: 100, cpuMs: 15,
	}
	if st != want {
		t.Errorf("block stats %+v, want %+v", st, want)
	}
}

// TestBlockMedian checks that a run's figure is the median over its
// blocks, so one disturbed block does not move it.
func TestBlockMedian(t *testing.T) {
	var p50s []float64
	for _, opMs := range []float64{10, 10, 50, 10, 10} {
		b := block{latMs: []float64{opMs, opMs, opMs}, elapsed: time.Second, aluMs: []float64{aluRefMs}, memMs: []float64{memRefMs}}
		p50s = append(p50s, b.stats().opMsP50)
	}
	if got := median(p50s); got != 10 {
		t.Errorf("median over blocks = %v, want 10", got)
	}
}
