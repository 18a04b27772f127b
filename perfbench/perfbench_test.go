package main

import (
	"encoding/json"
	"os"
	"testing"
)

// contract is the part of ../BENCHMARK.json the self-test holds the
// benchmark's output to.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []named `json:"end_to_end"`
	PerLayer []named `json:"per_layer"`
}

type named struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read contract: %v", err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatalf("parse contract: %v", err)
	}
	return c
}

// shortRun runs one workload in short mode (--seconds 1) and requires
// every statement to have succeeded with the oracle's answer.
func shortRun(t *testing.T, name string, seed int64, traced bool) *report {
	t.Helper()
	w, ok := workloads[name]
	if !ok {
		t.Fatalf("workload %q is in BENCHMARK.json but not in the benchmark", name)
	}
	rep, err := run(w, config{seed: seed, seconds: 1, traced: traced})
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", name, seed, traced, err)
	}
	if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%s seed %d traced=%v: correct=%v failed=%d/%d, first failure: %s",
			name, seed, traced, rep.correct, rep.failed, rep.attempted, rep.firstFailure)
	}
	return rep
}

// TestMetricsMatchContract runs every workload untraced and traced and
// checks that each prints exactly the contract's metrics with their
// units, that the leak and span-sum checks hold, and that open-loop runs
// report how late their dispatcher ran.
func TestMetricsMatchContract(t *testing.T) {
	c := loadContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for _, wl := range c.Workloads {
		for _, traced := range []bool{false, true} {
			rep := shortRun(t, wl.Name, 1, traced)
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, contract lists %d", wl.Name, traced, len(rep.metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s: got %+v (present %v), want unit %q", wl.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if !traced {
				continue
			}
			if v := rep.metrics["bus.uplink_non_query"].Value; v != 0 {
				t.Errorf("%s: %v uplink records other than the query text", wl.Name, v)
			}
			if v := rep.metrics["trace.sim_sum_mismatch"].Value; v != 0 {
				t.Errorf("%s: %v statements whose operator sim_us do not sum to their SimTime", wl.Name, v)
			}
			if !workloads[wl.Name].closed && rep.metrics["gen.late_ms_max"].Value <= 0 {
				t.Errorf("%s: open-loop run reports no dispatcher lateness", wl.Name)
			}
		}
	}
}

// TestPaperQRepeatsPerSeed checks that paper_q's simulated metrics and
// per-statement flash and bus counts are a function of the seed alone:
// identical for one seed, different for another.
func TestPaperQRepeatsPerSeed(t *testing.T) {
	cases := []struct {
		traced bool
		keys   []string
	}{
		{false, []string{"sim_p50_ms", "sim_p99_ms"}},
		{true, []string{"flash.page_reads_per_stmt", "flash.page_writes_per_stmt",
			"bus.down_bytes_per_stmt", "bus.up_bytes_per_stmt"}},
	}
	for _, tc := range cases {
		a := shortRun(t, "paper_q", 1, tc.traced)
		b := shortRun(t, "paper_q", 1, tc.traced)
		other := shortRun(t, "paper_q", 2, tc.traced)
		for _, k := range tc.keys {
			if a.metrics[k] != b.metrics[k] {
				t.Errorf("%s differs between two runs of seed 1: %v vs %v", k, a.metrics[k].Value, b.metrics[k].Value)
			}
			if a.metrics[k] == other.metrics[k] {
				t.Errorf("%s is the same for seeds 1 and 2: %v", k, a.metrics[k].Value)
			}
		}
	}
}
