package untrusted

import (
	"fmt"
	"math/rand"
	"testing"

	"ghostdb/internal/bus"
	"ghostdb/internal/query"
	"ghostdb/internal/schema"
	"ghostdb/internal/sqlparse"
)

var benchSels = []float64{0.001, 0.05, 0.3}

// benchVis loads a 10k-row table — a char(10) column and an int column
// holding a shuffled 0..rows-1 — and returns the engine with a range
// predicate per selectivity. The predicate is on the int column, so
// num < sel·rows matches exactly that share of rows.
func benchVis(b *testing.B) (*Engine, map[float64][]query.Pred) {
	b.Helper()
	const rows = 10000
	sch, err := schema.New([]schema.TableDef{{Name: "B", Columns: []schema.Column{
		{Name: "v1", Kind: schema.KindChar, Width: 10},
		{Name: "num", Kind: schema.KindInt},
	}}})
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(sch, bus.NewChannel(1.5))
	rng := rand.New(rand.NewSource(1))
	v1 := make([]byte, rows*10)
	num := make([]byte, rows*8)
	for i, x := range rng.Perm(rows) {
		if err := schema.EncodeValue(v1[i*10:(i+1)*10], schema.CharVal(fmt.Sprintf("%010d", rng.Intn(rows)))); err != nil {
			b.Fatal(err)
		}
		if err := schema.EncodeValue(num[i*8:(i+1)*8], schema.IntVal(int64(x))); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.LoadColumn(0, 0, 10, v1); err != nil {
		b.Fatal(err)
	}
	if err := e.LoadColumn(0, 1, 8, num); err != nil {
		b.Fatal(err)
	}
	preds := map[float64][]query.Pred{}
	for _, sel := range benchSels {
		preds[sel] = []query.Pred{{Table: 0, ColIdx: 1, Op: sqlparse.OpLt, Lo: schema.IntVal(int64(sel * rows))}}
		// Finish any lazy set-up (the column's index) before timing:
		// it is paid once per column, not per statement.
		if _, err := e.CountVis(0, preds[sel]); err != nil {
			b.Fatal(err)
		}
	}
	return e, preds
}

// BenchmarkCountVis is the planner's selectivity count over one visible
// range predicate.
func BenchmarkCountVis(b *testing.B) {
	e, preds := benchVis(b)
	for _, sel := range benchSels {
		b.Run(fmt.Sprintf("sel=%g", sel), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := e.CountVis(0, preds[sel]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkComputeVis is the uncached Vis operator: the matching ids in
// ascending order, each with its encoded v1 value.
func BenchmarkComputeVis(b *testing.B) {
	e, preds := benchVis(b)
	for _, sel := range benchSels {
		b.Run(fmt.Sprintf("sel=%g", sel), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := e.ComputeVis(0, preds[sel], []int{0}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
