// Command bench is the repository's benchmark: four closed-loop
// workloads driven through a real in-process RAVE deployment (registry
// over HTTP/SOAP, data service, render services, loopback TCP) on the
// wall clock, every output checked, every timing reported at reference
// host speed so that runs repeat. README.md explains the metrics.
//
//	go run ./bench -workload thin_orbit [-seed N] [-seconds S] [-trace 1]
//	go run ./bench -aa 6
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
)

// benchProcs is the GOMAXPROCS every run uses: the workloads' sizes and
// the two-services-in-parallel fan-outs assume exactly two processors.
const benchProcs = 2

func main() {
	os.Exit(realMain())
}

func realMain() int {
	cfg := config{corruptOp: -1}
	var trace string
	var aa int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: thin_orbit, tile_fanout, subset_fanout or collab_edit")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for the workload's inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long to run timed blocks")
	flag.StringVar(&trace, "trace", "0", "1 for a traced run, which reports the per-layer metrics")
	flag.IntVar(&cfg.blocks, "blocks", 0, "run exactly this many timed blocks instead of filling -seconds")
	flag.IntVar(&cfg.setups, "setups", 9, "cold set-ups to time")
	flag.IntVar(&cfg.ops, "ops", 0, "ops per block instead of the workload's own")
	flag.StringVar(&cfg.scratch, "scratch", ".bench_build", "directory for the journal and trace files")
	flag.IntVar(&aa, "aa", 0, "run every workload this many times and compare the runs with each other")
	flag.Parse()

	traced, err := strconv.ParseBool(trace)
	if err != nil || flag.NArg() > 0 || cfg.setups < 1 {
		flag.Usage()
		return 2
	}
	cfg.traced = traced
	if runtime.NumCPU() < benchProcs {
		fmt.Fprintf(os.Stderr, "bench: %d processor(s); the workloads are sized for %d and would measure a different machine shape\n",
			runtime.NumCPU(), benchProcs)
		return 2
	}
	runtime.GOMAXPROCS(benchProcs)
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if aa > 0 {
		return runAA(aa, cfg)
	}

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if err := printResult(res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		for _, f := range res.Failures {
			fmt.Fprintln(os.Stderr, "bench: FAILED:", f)
		}
		return 1
	}
	return 0
}

// summary is the last line of a run's output: the driver's view, holding
// the end-to-end metrics of an untraced run or the per-layer metrics of
// a traced one.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary picks the driver's metrics out of the document.
func (res *result) summary() (summary, error) {
	var names []string
	if res.Traced {
		names = perLayer()
	} else {
		for _, m := range endToEndBounds {
			names = append(names, m.name)
		}
	}
	sum := summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]summaryMetric{}}
	for _, name := range names {
		m, ok := res.Metrics[name]
		if !ok {
			return summary{}, fmt.Errorf("metric %s was not measured", name)
		}
		sum.Metrics[name] = summaryMetric{Value: m.Value, Unit: m.Unit}
	}
	return sum, nil
}

// printResult writes the full document on one line and the summary on
// the next.
func printResult(res *result) error {
	sum, err := res.summary()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(res); err != nil {
		return err
	}
	return enc.Encode(sum)
}
