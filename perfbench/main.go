// Command perfbench is the repository's layered benchmark. It drives one
// workload for a fixed wall-clock window and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics of a traced run) as one JSON
// object on the last line of standard output.
//
//	perfbench --workload write --seed 1 --seconds 10 --trace 0
//
// The write, read and firewall workloads drive internal/core's simulated
// cluster with compute charged to the virtual clock; tcp drives the public
// saebft API over loopback mutual TLS. README.md explains each workload,
// each metric and how to read a traced run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: write, read, firewall or tcp")
	seed := flag.Int64("seed", 1, "workload seed; the same seed generates the same operations")
	seconds := flag.Int("seconds", 10, "wall-clock seconds the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	work := flag.String("work", ".bench_build/perfbench-work", "scratch directory for WAL data and span dumps")
	flag.Parse()
	start := time.Now()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1"))
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fail(fmt.Errorf("creating work directory: %w", err))
	}
	window := time.Duration(*seconds) * time.Second
	var (
		res *result
		err error
	)
	switch {
	case *workload == "tcp":
		res, err = runTCP(*seed, window, *trace == 1, *work)
	case simSpecs[*workload] != nil:
		res, err = runSim(simSpecs[*workload], *seed, window, *trace == 1, *work)
	default:
		err = fmt.Errorf("unknown workload %q (want write, read, firewall or tcp)", *workload)
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("wall: %.1fs\n", time.Since(start).Seconds())
	printResult(res)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printResult writes a readable metric table, then the JSON result line.
func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// cpuNow returns the process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// percentile returns the q-quantile (0..1) of xs by nearest rank; xs is
// sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// ratio divides, reporting 0 for an empty base.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
