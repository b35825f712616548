package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Reference kernel times: the median alu and mem kernel times on the
// host class the benchmark's sizes were chosen for (2 vCPU Xeon 2.1 GHz
// guest), taken while the workloads ran. They only fix the scale of the
// reported numbers; what makes runs repeat is dividing by the kernels'
// times measured alongside the work. See README.md, "Noise study".
const (
	aluRefMs = 0.70
	memRefMs = 4.0

	// kernelEvery is how much timed work passes between kernel samples.
	kernelEvery = 60 * time.Millisecond
)

// kernels are two loops that share no code with the program under
// test. alu is cache-resident floating-point work run on both
// processors at once, because every workload keeps both busy and the
// host's second processor slows independently of the first; mem
// streams 32 MiB at cache-line stride on one. Neither alone tracks the
// host's drift (README.md); their geometric mean does.
type kernels struct {
	alu  [benchProcs][]float64
	mem  []uint64
	sink uint64
}

func newKernels() *kernels {
	k := &kernels{mem: make([]uint64, 32<<20/8)}
	for i := range k.alu {
		k.alu[i] = make([]float64, 32768)
	}
	for i := range k.mem {
		k.mem[i] = uint64(i)
	}
	return k
}

func aluPasses(x []float64) {
	for pass := 0; pass < 16; pass++ {
		for i := range x {
			x[i] = x[i]*1.0000001 + 0.5
		}
	}
}

// runALU runs the alu loop on every processor and waits for all.
func (k *kernels) runALU() {
	var wg sync.WaitGroup
	for _, x := range k.alu[1:] {
		wg.Add(1)
		go func(x []float64) {
			defer wg.Done()
			aluPasses(x)
		}(x)
	}
	aluPasses(k.alu[0])
	wg.Wait()
}

func (k *kernels) runMem() {
	acc := k.sink
	m := k.mem
	for i := 0; i < len(m); i += 8 {
		acc += m[i]
		m[i] = acc
	}
	k.sink = acc
}

// sample times one run of each kernel, in milliseconds.
func (k *kernels) sample() (aluMs, memMs float64) {
	t0 := time.Now()
	k.runALU()
	t1 := time.Now()
	k.runMem()
	t2 := time.Now()
	return ms(t1.Sub(t0)), ms(t2.Sub(t1))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// processCPU returns the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's high-water resident set in MB
// (ru_maxrss is in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// envStamp describes the machine and build a result came from, so two
// documents are only ever compared like with like.
type envStamp struct {
	Clock      string  `json:"clock"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	Seed       uint64  `json:"seed"`
	WalFS      string  `json:"wal_fs"`
	AluRefMs   float64 `json:"alu_ref_ms"`
	MemRefMs   float64 `json:"mem_ref_ms"`
}

func stampEnv(seed uint64, scratch string) envStamp {
	return envStamp{
		Clock:      "wall",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(),
		Seed:       seed,
		WalFS:      fsType(scratch),
		AluRefMs:   aluRefMs,
		MemRefMs:   memRefMs,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// gitSHA reads the checked-out commit from .git without running git;
// the driver's checkout is not a repository, which reads as "none".
func gitSHA() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(".git/" + name)
		if err != nil {
			return "none"
		}
		ref = strings.TrimSpace(string(b))
	}
	return ref
}

// fsType names the filesystem holding dir from its statfs magic; the
// journal of collab_edit lives there, so its fsync cost is that
// filesystem's.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("%#x", uint32(st.Type))
}
