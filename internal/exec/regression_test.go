package exec

import (
	"context"
	"math/rand"
	"testing"
)

// TestPostSelectSeedRegression pins the quick.Check seed that broke the
// seed repository: seed -7675354091881124866 generates a Post-Select
// query whose staging phase ran while the QEPSJ pipeline still held its
// writer and Bloom-filter grants, so the old `Available() - k*BufferSize`
// admission arithmetic concluded there was "not enough RAM for
// post-select" and failed the query outright. With reservation-based
// admission the operator takes a smaller staging grant and re-scans the
// result column more times instead.
func TestPostSelectSeedRegression(t *testing.T) {
	f := newFixture(t, 77, map[string]int{"T0": 1200, "T1": 150, "T2": 120, "T11": 40, "T12": 40})
	strategies := []Strategy{StratAuto, StratPre, StratCrossPre, StratPost,
		StratCrossPost, StratPostSelect, StratNoFilter}
	projectors := []Projector{ProjectBloom, ProjectNoBF, ProjectBruteForce}

	// Replay exactly what TestRandomQueriesMatchReferenceProperty does
	// with the recorded seed, so the regression stays pinned even if the
	// random query generator evolves around it.
	const seed = int64(-7675354091881124866)
	rng := rand.New(rand.NewSource(seed))
	sql := randomQuery(rng)
	s := strategies[rng.Intn(len(strategies))]
	pj := projectors[rng.Intn(len(projectors))]
	if s != StratPostSelect {
		t.Logf("note: seed no longer forces Post-Select (got %v); still checking", s)
	}
	want := f.refAnswer(t, sql)
	res, err := f.db.RunCtx(context.Background(), sql, QueryConfig{Strategy: s, Projector: pj})
	if err != nil {
		t.Fatalf("seed %d [%v/%v] %s: %v", seed, s, pj, sql, err)
	}
	if !rowsEqual(res.Rows, want) {
		t.Fatalf("seed %d [%v/%v]: %d rows vs %d\nsql: %s", seed, s, pj, len(res.Rows), len(want), sql)
	}
	if f.db.RAM.Leaked() {
		t.Fatalf("seed %d: RAM grants leaked", seed)
	}
	checkNoLeak(t, f.db, sql)

	// The same query must also survive with every strategy/projector
	// combination forced, not just the recorded one.
	for _, fs := range strategies {
		for _, fp := range projectors {
			res, err := f.db.RunCtx(context.Background(), sql, QueryConfig{Strategy: fs, Projector: fp})
			if err != nil {
				t.Fatalf("[%v/%v] %s: %v", fs, fp, sql, err)
			}
			if !rowsEqual(res.Rows, want) {
				t.Fatalf("[%v/%v]: %d rows vs %d", fs, fp, len(res.Rows), len(want))
			}
			if f.db.RAM.Leaked() {
				t.Fatalf("[%v/%v]: RAM grants leaked", fs, fp)
			}
		}
	}
}
