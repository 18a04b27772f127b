package experiments

import (
	"fmt"
	"runtime"

	"ghostdb/internal/exec"
)

// PlannerPoint is one measured cell of the planner sweep: a mixed
// narrow/wide workload pushed through one DB by `Concurrency` client
// goroutines under one admission policy. Latencies are simulated (so
// machine-independent); WallQPS is host throughput of the engine itself.
type PlannerPoint struct {
	Mode          string  `json:"mode"` // "plan-floor" or "fixed-floor"
	Concurrency   int     `json:"concurrency"`
	Queries       int     `json:"queries"`
	WallSeconds   float64 `json:"wall_seconds"`
	WallQPS       float64 `json:"wall_qps"`
	SimP50Ms      float64 `json:"sim_p50_ms"`
	SimP95Ms      float64 `json:"sim_p95_ms"`
	SimP99Ms      float64 `json:"sim_p99_ms"`
	MaxRunning    int     `json:"max_running_observed"`
	MinFloorSeen  int     `json:"min_floor_seen"`
	MaxFloorSeen  int     `json:"max_floor_seen"`
	AnswerErrors  int     `json:"answer_errors"`
	LeakedGrants  bool    `json:"leaked_grants"`
	EngineQueries uint64  `json:"engine_total_queries"`
}

// PlannerReport is the machine-readable output of the planner sweep
// (cmd/ghostdb-bench writes it as BENCH_planner.json so the effect of
// plan-sized admission on throughput is recorded PR over PR).
type PlannerReport struct {
	Scale          float64        `json:"scale"`
	Seed           int64          `json:"seed"`
	RAMBudgetBytes int            `json:"ram_budget_bytes"`
	Levels         []PlannerPoint `json:"levels"`
}

// sampleMaxRunning watches the scheduler's admitted-session count from a
// sampling goroutine and returns a stop function yielding the observed
// peak. It spin-samples (yielding only occasionally): admitted sessions
// can be far shorter than a sleep tick, so a sleeping sampler reads a
// dead queue. Burning one core is acceptable inside a benchmark sweep.
func sampleMaxRunning(db *exec.DB) (stop func() int) {
	maxRunning := 0
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-quit:
				return
			default:
				if running := db.Sched().Running(); running > maxRunning {
					maxRunning = running
				}
				if i%1024 == 0 {
					runtime.Gosched()
				}
			}
		}
	}()
	return func() int {
		close(quit)
		<-done
		return maxRunning
	}
}

// plannerWorkload mixes wide 3-table joins (plan floors around 7
// buffers) with narrow single- and two-table queries (floors of 4-6),
// the shapes whose overlap the fixed 8-buffer floor used to forfeit.
func plannerWorkload(n int) []string {
	var base []string
	for _, sv := range SVGrid[:4] {
		base = append(base, SynthQ(sv, 1, false))
		base = append(base,
			`SELECT id, v1, h1 FROM T11 WHERE h2 >= '0000000800'`,
			`SELECT T1.id FROM T1, T12 WHERE T1.fk12 = T12.id AND T12.h1 < '0000000200'`,
			`SELECT id, v2 FROM T12 WHERE h3 < '0000000300'`,
		)
	}
	out := make([]string, 0, n)
	for len(out) < n {
		out = append(out, base[len(out)%len(base)])
	}
	return out
}

// PlannerSweep runs the mixed workload at each concurrency level twice:
// once with admission sized from each plan's derived floor and once with
// the fixed pre-planner floor (fixedFloorBuffers). The difference is
// pure admission policy — same queries, same budget, same engine.
func (l *Lab) PlannerSweep(levels []int, queriesPerLevel int) (*PlannerReport, error) {
	ds, err := l.SynthDataset()
	if err != nil {
		return nil, err
	}
	rep := &PlannerReport{Scale: l.SF, Seed: l.Seed}
	queries := plannerWorkload(queriesPerLevel)

	for _, level := range levels {
		for _, mode := range []string{"fixed-floor", "plan-floor"} {
			db, err := ds.NewDB(exec.Options{
				FlashParams:          flashFor(l.SF),
				MaxConcurrentQueries: level,
			})
			if err != nil {
				return nil, err
			}
			rep.RAMBudgetBytes = db.RAM.Budget()

			// Sessions target an equal share of the budget (as in the
			// concurrency sweep); only the admission floor differs.
			// fixed-floor is the pre-planner policy: the share never drops
			// below the blind 8-buffer minimum, so at 16 sessions over a
			// 32-buffer budget at most 4 ever hold RAM. plan-floor lets
			// each query's own derived minimum decide: narrow queries
			// (floors of 4-6) fit into the crowded budget's gaps, raising
			// admitted overlap; their tighter grants cost extra operator
			// passes, which the simulated percentiles record.
			share := db.RAM.Buffers() / level
			if share < 1 {
				share = 1
			}
			var cfg exec.QueryConfig
			if mode == "fixed-floor" {
				g := share
				if g < fixedFloorBuffers {
					g = fixedFloorBuffers
				}
				cfg = exec.QueryConfig{MinBuffers: g, WantBuffers: g}
			} else {
				cfg = exec.QueryConfig{WantBuffers: share}
			}

			minFloor, maxFloor := 1<<30, 0
			stopSampler := sampleMaxRunning(db)
			rs := runWorkload(db, level, queries, cfg, func(_ string, res *exec.Result) {
				if f := res.Stats.PlanMinBuffers; f > 0 {
					if f < minFloor {
						minFloor = f
					}
					if f > maxFloor {
						maxFloor = f
					}
				}
			})
			maxRunning := stopSampler()

			if rs.errs > 0 {
				return nil, fmt.Errorf("planner sweep: %d queries failed at level %d (%s): %w",
					rs.errs, level, mode, rs.firstErr)
			}
			pt := PlannerPoint{
				Mode:          mode,
				Concurrency:   level,
				Queries:       len(queries),
				WallSeconds:   rs.wall.Seconds(),
				WallQPS:       rs.qps(),
				SimP50Ms:      rs.p50ms(),
				SimP95Ms:      rs.p95ms(),
				SimP99Ms:      rs.p99ms(),
				MaxRunning:    maxRunning,
				MinFloorSeen:  minFloor,
				MaxFloorSeen:  maxFloor,
				AnswerErrors:  rs.errs,
				LeakedGrants:  db.RAM.Leaked(),
				EngineQueries: db.Totals().Queries,
			}
			rep.Levels = append(rep.Levels, pt)
		}
	}
	return rep, nil
}
