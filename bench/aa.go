package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runAA is the A/A check: it runs every workload (or the one named by
// -workload) n times, back to back with this same binary, and asks
// whether two sets of runs of identical code agree within the
// benchmark's own regression bounds. Each run is a fresh child process,
// so peak memory and lazy initialisation are per run, and takes the
// next seed, as the driver's runs do. It prints, per metric, the
// median, the quartile spread the driver judges by, and the widest
// deviations, as measured and at reference speed side by side. It
// returns non-zero when, for a bounded metric, the medians of the odd
// and even runs differ by more than the bound, the spread is wider than
// the bound, or a single run sits further than the bound from the
// median.
func runAA(n int, cfg config) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	runs := map[string][]*result{}
	for i := 0; i < n; i++ {
		for _, name := range names {
			res, err := runChild(exe, name, cfg, cfg.seed+uint64(i))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: run %d of %s: %v\n", i, name, err)
				return 1
			}
			runs[name] = append(runs[name], res)
			fmt.Fprintf(os.Stderr, "run %d %s: op_ms_p50 %.4f (raw %.4f) at speed %.3f\n", i, name,
				res.Metrics["op_ms_p50"].Value, res.Metrics["raw.op_ms_p50"].Value, res.Metrics["host.speed_index"].Value)
		}
	}

	// The bounded metrics, then the unbounded tail for the record.
	type row struct {
		name, raw string  // the metric and its as-measured twin
		bound     float64 // 0: reported, not judged
	}
	var rows []row
	for _, m := range endToEndBounds {
		rows = append(rows, row{m.name, "raw." + m.name, m.bound})
	}
	rows = append(rows, row{"diag.op_ms_p90", "raw.op_ms_p90", 0})

	ok := true
	fmt.Printf("A/A: %d runs per workload, %g s each, seeds %d..%d, two alternating sets\n",
		n, cfg.seconds, cfg.seed, cfg.seed+uint64(n)-1)
	for _, name := range names {
		fmt.Printf("\n%s\n", name)
		fmt.Printf("  %-18s %10s %8s %8s %8s %8s %6s\n", "metric", "median", "iqr", "min", "max", "sets", "bound")
		for _, r := range rows {
			for _, metricName := range []string{r.name, r.raw} {
				xs := values(runs[name], metricName)
				if xs == nil {
					continue // peak_rss_mb has no raw twin
				}
				st := summarize(xs)
				bound, verdict := "", ""
				if r.bound > 0 && metricName == r.name {
					bound = fmt.Sprintf("%.0f%%", 100*r.bound)
					switch {
					case st.setsDiff > r.bound:
						verdict = "  FAIL: sets differ by more than the bound"
					case st.iqr > r.bound:
						verdict = "  FAIL: spread wider than the bound"
					case math.Max(-st.minDev, st.maxDev) > r.bound:
						verdict = "  FAIL: a run further than the bound from the median"
					}
					if verdict != "" {
						ok = false
					}
				}
				fmt.Printf("  %-18s %10.4f %7.2f%% %+7.2f%% %+7.2f%% %7.2f%% %6s%s\n",
					metricName, st.median, 100*st.iqr, 100*st.minDev, 100*st.maxDev, 100*st.setsDiff, bound, verdict)
			}
		}
		failed := 0
		for _, r := range runs[name] {
			failed += r.Failed
		}
		fmt.Printf("  failed ops: %d\n", failed)
		if failed > 0 {
			ok = false
		}
	}
	if !ok {
		fmt.Println("\nA/A FAILED")
		return 1
	}
	fmt.Println("\nA/A passed")
	return 0
}

// runChild runs one workload in a child process and returns its
// document, which it also keeps in the scratch directory, block detail
// and all, for whoever studies the runs.
func runChild(exe, workload string, cfg config, seed uint64) (*result, error) {
	cmd := exec.Command(exe,
		"-workload", workload,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-setups", strconv.Itoa(cfg.setups),
		"-blocks", strconv.Itoa(cfg.blocks),
		"-ops", strconv.Itoa(cfg.ops),
		"-scratch", cfg.scratch,
	)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("no output")
	}
	var res result
	if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("parse document: %w", err)
	}
	name := fmt.Sprintf("aa-%s-seed%d.json", workload, seed)
	if err := os.WriteFile(filepath.Join(cfg.scratch, name), sc.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return &res, nil
}

func values(runs []*result, metricName string) []float64 {
	var xs []float64
	for _, r := range runs {
		m, ok := r.Metrics[metricName]
		if !ok {
			return nil
		}
		xs = append(xs, m.Value)
	}
	return xs
}

// aaStats describe one metric over the runs, every spread as a share of
// the median.
type aaStats struct {
	median, iqr, minDev, maxDev, setsDiff float64
}

func summarize(xs []float64) aaStats {
	med := median(xs)
	st := aaStats{median: med}
	if med == 0 {
		return st
	}
	q1, q3 := quartiles(xs)
	st.iqr = (q3 - q1) / med
	st.minDev = percentile(xs, 0)/med - 1
	st.maxDev = percentile(xs, 1)/med - 1
	var even, odd []float64
	for i, x := range xs {
		if i%2 == 0 {
			even = append(even, x)
		} else {
			odd = append(odd, x)
		}
	}
	if len(odd) > 0 {
		st.setsDiff = math.Abs(median(even)-median(odd)) / med
	}
	return st
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is
// what the driver uses to judge a metric's spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}
