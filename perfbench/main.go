// Command perfbench is the repository benchmark: it drives the GhostDB
// engine in-process on one of three seeded workloads, checks every answer
// against the internal/ref oracle, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics) by name with their units. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 2000, "failed": 0, "metrics": {...}}
//
// See README.md in this directory for the workloads and how to read the
// metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	name := flag.String("workload", "", "workload to run: paper_q, zipf_read or write_mix")
	seed := flag.Int64("seed", 1, "seed for the dataset and the statement stream")
	seconds := flag.Int("seconds", 20, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	// One process, at most one OS thread per core: the engine's sessions,
	// scatter legs and the open-loop dispatcher all share these.
	if n := runtime.NumCPU(); n < 2 {
		runtime.GOMAXPROCS(n)
	} else {
		runtime.GOMAXPROCS(2)
	}

	rep, err := run(w, config{seed: *seed, seconds: *seconds, traced: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if rep.firstFailure != "" {
		fmt.Printf("first failure: %s\n", rep.firstFailure)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Printf("%-34s %14.4f %s\n", n, m.Value, m.Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, rep.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome.
type report struct {
	correct      bool
	attempted    int
	failed       int
	firstFailure string
	metrics      map[string]metric
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}
