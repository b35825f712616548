package main

import (
	"time"
)

// block is what one timed block of a workload measured. Every block of
// a run replays the same op sequence, so blocks are directly comparable
// and a run's metrics are medians over its blocks.
type block struct {
	latMs        []float64     // per-op latency as measured
	elapsed      time.Duration // wall time of the block minus harness time
	cpu          time.Duration // process CPU over the block minus harness time
	aluMs, memMs []float64     // kernel samples taken during the block
}

// blockStats are one block's metrics, as measured (raw) and at
// reference host speed (the plain names).
type blockStats struct {
	speedIndex, aluMs, memMs                  float64
	rawP50, rawP90, rawP99, rawOpsPerS        float64
	rawCPUMsPerOp                             float64
	opMsP50, opMsP90, opMsP99, opsPerS, cpuMs float64
}

// stats reduces a block: timings are multiplied by the block's speed
// index and rates divided by it, so a block that ran while the host was
// slow reads like one that ran on the reference host.
func (b *block) stats() blockStats {
	n := float64(len(b.latMs))
	lat := sorted(b.latMs)
	s := blockStats{
		aluMs:  median(b.aluMs),
		memMs:  median(b.memMs),
		rawP50: quantile(lat, 0.50),
		rawP90: quantile(lat, 0.90),
		rawP99: quantile(lat, 0.99),
	}
	s.speedIndex = speedIndex(s.aluMs, s.memMs)
	if b.elapsed > 0 {
		s.rawOpsPerS = n / b.elapsed.Seconds()
	}
	if n > 0 {
		s.rawCPUMsPerOp = ms(b.cpu) / n
	}
	s.opMsP50 = s.rawP50 * s.speedIndex
	s.opMsP90 = s.rawP90 * s.speedIndex
	s.opMsP99 = s.rawP99 * s.speedIndex
	s.opsPerS = s.rawOpsPerS / s.speedIndex
	s.cpuMs = s.rawCPUMsPerOp * s.speedIndex
	return s
}

// meter times the ops of one block. Time the harness itself spends
// inside the block — the reference kernels, checksum verification — is
// taken out of both the block's wall time and its CPU time, so neither
// is charged to the program. Harness work is single-threaded, so it
// costs as much CPU as wall time, except the alu kernel, which keeps
// every processor busy.
type meter struct {
	now    func() time.Time
	cpu    func() time.Duration
	sample func() (aluMs, memMs float64)

	b          block
	start      time.Time
	cpu0       time.Duration
	harness    time.Duration // wall time spent on harness work
	harnessCPU time.Duration // CPU time spent on it
	lastKernel time.Time
}

func newMeter(k *kernels) *meter {
	return &meter{now: time.Now, cpu: processCPU, sample: k.sample}
}

// begin starts a block with one kernel sample, so even a short block
// has a speed index.
func (m *meter) begin() {
	m.b = block{}
	m.harness, m.harnessCPU = 0, 0
	m.start = m.now()
	m.cpu0 = m.cpu()
	m.kernel()
}

// op times one closed-loop operation.
func (m *meter) op(fn func()) (start time.Time, d time.Duration) {
	start = m.now()
	fn()
	d = m.now().Sub(start)
	m.b.latMs = append(m.b.latMs, ms(d))
	return start, d
}

// pause runs harness work inside the block without charging it.
func (m *meter) pause(fn func()) {
	t0 := m.now()
	fn()
	d := m.now().Sub(t0)
	m.harness += d
	m.harnessCPU += d
}

// tick samples the kernels when kernelEvery of work has passed since
// the last sample; call it between ops.
func (m *meter) tick() {
	if m.now().Sub(m.lastKernel) >= kernelEvery {
		m.kernel()
	}
}

func (m *meter) kernel() {
	m.pause(func() {
		a, mem := m.sample()
		m.b.aluMs = append(m.b.aluMs, a)
		m.b.memMs = append(m.b.memMs, mem)
		m.harnessCPU += time.Duration(a * (benchProcs - 1) * float64(time.Millisecond))
	})
	m.lastKernel = m.now()
}

// end closes the block.
func (m *meter) end() block {
	m.b.elapsed = m.now().Sub(m.start) - m.harness
	m.b.cpu = m.cpu() - m.cpu0 - m.harnessCPU
	return m.b
}
