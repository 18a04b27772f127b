package experiments

import (
	"fmt"

	"ghostdb/internal/exec"
)

// fixedFloorBuffers is the blind per-session admission floor the engine
// used before the grant-aware planner sized admission from each plan's
// derived minimum. The concurrency sweep grants at least this much, and
// the planner sweep's fixed-floor arm measures against it.
const fixedFloorBuffers = 8

// ConcurrencyPoint is one measured level of the concurrency sweep: a
// mixed query workload pushed through one DB by `Concurrency` client
// goroutines. Latencies are *simulated* (flash I/O + link transfer under
// the Table 1 cost model), so they are machine-independent; WallQPS is
// host throughput of the engine itself (admission, scheduling and
// simulation overhead included) and does vary by machine.
type ConcurrencyPoint struct {
	Concurrency   int     `json:"concurrency"`
	Queries       int     `json:"queries"`
	GrantBuffers  int     `json:"grant_buffers"`
	WallSeconds   float64 `json:"wall_seconds"`
	WallQPS       float64 `json:"wall_qps"`
	SimP50Ms      float64 `json:"sim_p50_ms"`
	SimP95Ms      float64 `json:"sim_p95_ms"`
	SimP99Ms      float64 `json:"sim_p99_ms"`
	SimTotalMs    float64 `json:"sim_total_ms"`
	MaxRunning    int     `json:"max_running_observed"`
	LeakedGrants  bool    `json:"leaked_grants"`
	PrivateLeaks  int     `json:"private_leaks"`
	AnswerErrors  int     `json:"answer_errors"`
	EngineQueries uint64  `json:"engine_total_queries"`
}

// ConcurrencyReport is the machine-readable output of the sweep
// (cmd/ghostdb-bench writes it as BENCH_concurrency.json so the perf
// trajectory of the scheduler is recorded PR over PR).
type ConcurrencyReport struct {
	Scale          float64            `json:"scale"`
	Seed           int64              `json:"seed"`
	RAMBudgetBytes int                `json:"ram_budget_bytes"`
	Levels         []ConcurrencyPoint `json:"levels"`
}

// concurrencyWorkload renders the mixed query set for the sweep: query Q
// across the lower visible-selectivity grid, with and without a hidden
// projection — shapes the RAM sweep proves viable at 8-buffer session
// grants.
func concurrencyWorkload(n int) []string {
	var base []string
	for _, sv := range SVGrid[:6] {
		base = append(base, SynthQ(sv, 1, false))
		base = append(base, SynthQ(sv, 2, true))
	}
	out := make([]string, 0, n)
	for len(out) < n {
		out = append(out, base[len(out)%len(base)])
	}
	return out
}

// ConcurrencySweep runs the mixed workload at each concurrency level on
// a fresh synthetic DB and reports throughput and simulated latency
// percentiles. Sessions cap their RAM want at budget/level (floored at
// the 8-buffer default minimum), so higher levels genuinely hold
// several grants on the one Manager at once.
func (l *Lab) ConcurrencySweep(levels []int, queriesPerLevel int) (*ConcurrencyReport, error) {
	ds, err := l.SynthDataset()
	if err != nil {
		return nil, err
	}
	rep := &ConcurrencyReport{Scale: l.SF, Seed: l.Seed}
	queries := concurrencyWorkload(queriesPerLevel)

	for _, level := range levels {
		db, err := ds.NewDB(exec.Options{
			FlashParams:          flashFor(l.SF),
			MaxConcurrentQueries: level,
		})
		if err != nil {
			return nil, err
		}
		rep.RAMBudgetBytes = db.RAM.Budget()

		grant := db.RAM.Buffers() / level
		if grant < fixedFloorBuffers {
			grant = fixedFloorBuffers
		}
		cfg := exec.QueryConfig{MinBuffers: grant, WantBuffers: grant}

		// A sampler observes how many sessions genuinely overlap.
		stopSampler := sampleMaxRunning(db)
		rs := runWorkload(db, level, queries, cfg, nil)
		maxRunning := stopSampler()

		pt := ConcurrencyPoint{
			Concurrency:   level,
			Queries:       len(queries),
			GrantBuffers:  grant,
			WallSeconds:   rs.wall.Seconds(),
			WallQPS:       rs.qps(),
			SimTotalMs:    float64(rs.simTotal.Microseconds()) / 1000,
			SimP50Ms:      rs.p50ms(),
			SimP95Ms:      rs.p95ms(),
			SimP99Ms:      rs.p99ms(),
			MaxRunning:    maxRunning,
			LeakedGrants:  db.RAM.Leaked(),
			PrivateLeaks:  db.Sched().Leaks(),
			AnswerErrors:  rs.errs,
			EngineQueries: db.Totals().Queries,
		}
		if rs.errs > 0 {
			return nil, fmt.Errorf("concurrency sweep: %d queries failed at level %d: %w", rs.errs, level, rs.firstErr)
		}
		rep.Levels = append(rep.Levels, pt)
	}
	return rep, nil
}
