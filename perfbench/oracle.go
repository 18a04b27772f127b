package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"ghostdb/internal/datagen"
	"ghostdb/internal/query"
	"ghostdb/internal/schema"
	"ghostdb/internal/sqlparse"
)

// answer is an order-independent digest of a result: its row count and
// the wrapping sum of a 64-bit hash of every row. Rows the engine returns
// in a different order still match; any changed, missing or extra value
// changes the sum.
type answer struct {
	rows int
	sum  uint64
}

func digest(rows []schema.Row) answer {
	a := answer{rows: len(rows)}
	for _, r := range rows {
		a.sum += rowHash(r)
	}
	return a
}

func rowHash(r schema.Row) uint64 {
	// FNV-1a over each value's kind, its numeric bits and its string
	// bytes, then a splitmix64 finalizer so that the sum of row hashes
	// has no linear structure. Written out by hand to stay free of
	// allocations: it runs on every answer inside the measured phases.
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range r {
		h = (h ^ uint64(v.Kind)) * prime
		var bits uint64
		switch v.Kind {
		case schema.KindInt:
			bits = uint64(v.I)
		case schema.KindFloat:
			bits = math.Float64bits(v.F)
		}
		for i := 0; i < 8; i++ {
			h = (h ^ (bits >> (8 * i) & 0xff)) * prime
		}
		for i := 0; i < len(v.S); i++ {
			h = (h ^ uint64(v.S[i])) * prime
		}
		h = (h ^ 0xff) * prime
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// buildOracle answers every distinct statement text with the internal/ref
// reference engine loaded from the same generated rows the engine gets.
//
// Forest (cross-tree) queries go to ref.Evaluate as they are. Single-tree
// queries are grouped by their FROM set: ref evaluates each group once
// with its selections dropped and every column the group's statements
// select or project kept, and each statement's answer is that base
// answer filtered by its own range predicates and projected. This keeps
// the oracle exact while a few thousand distinct texts cost seconds
// rather than minutes. UPDATE/DELETE texts are applied to the reference
// engine in stream order; their expected answer is the affected-row
// count the engine reports.
func buildOracle(ds *datagen.Dataset, texts []string) (map[string]answer, error) {
	re, err := ds.RefEngine()
	if err != nil {
		return nil, err
	}
	want := make(map[string]answer, len(texts))
	type group struct {
		tables []int
		anchor int
		cols   []query.Proj
		pos    map[query.Proj]int
		stmts  []*query.Query
	}
	groups := map[string]*group{}
	var order []*group
	need := func(g *group, p query.Proj) {
		if _, ok := g.pos[p]; !ok {
			g.pos[p] = len(g.cols)
			g.cols = append(g.cols, p)
		}
	}
	for _, sql := range texts {
		if _, done := want[sql]; done {
			continue
		}
		parsed, err := sqlparse.Parse(sql)
		if err != nil {
			return nil, fmt.Errorf("oracle: %q: %w", sql, err)
		}
		switch st := parsed.(type) {
		case *sqlparse.Select:
			q, err := query.Resolve(ds.Sch, st, sql)
			if err != nil {
				return nil, fmt.Errorf("oracle: %q: %w", sql, err)
			}
			if len(q.Parts) > 0 {
				rows, err := re.Evaluate(q)
				if err != nil {
					return nil, fmt.Errorf("oracle: %q: %w", sql, err)
				}
				want[sql] = digest(rows)
				continue
			}
			key := fmt.Sprint(q.Anchor, q.Tables)
			g := groups[key]
			if g == nil {
				g = &group{tables: q.Tables, anchor: q.Anchor, pos: map[query.Proj]int{}}
				groups[key] = g
				order = append(order, g)
			}
			for _, p := range q.Preds {
				need(g, query.Proj{Table: p.Table, ColIdx: p.ColIdx})
			}
			for _, p := range q.Projections {
				need(g, p)
			}
			g.stmts = append(g.stmts, q)
			want[sql] = answer{} // placeholder: filled below
		case *sqlparse.Update:
			d, err := query.ResolveUpdate(ds.Sch, st, sql)
			if err != nil {
				return nil, fmt.Errorf("oracle: %q: %w", sql, err)
			}
			want[sql] = digest([]schema.Row{{schema.IntVal(int64(re.Update(d)))}})
		case *sqlparse.Delete:
			d, err := query.ResolveDelete(ds.Sch, st, sql)
			if err != nil {
				return nil, fmt.Errorf("oracle: %q: %w", sql, err)
			}
			want[sql] = digest([]schema.Row{{schema.IntVal(int64(re.Delete(d)))}})
		default:
			return nil, fmt.Errorf("oracle: unsupported statement %q", sql)
		}
	}

	var mu sync.Mutex
	for _, g := range order {
		base, err := re.Evaluate(&query.Query{Tables: g.tables, Anchor: g.anchor, Projections: g.cols})
		if err != nil {
			return nil, fmt.Errorf("oracle: base rows: %w", err)
		}
		// Each statement scans only the base rows below its first
		// predicate's bound, through a row order sorted on that column.
		all := make([]int, len(base))
		for i := range all {
			all[i] = i
		}
		byCol := map[int][]int{}
		for _, q := range g.stmts {
			if len(q.Preds) == 0 {
				continue
			}
			c := g.pos[query.Proj{Table: q.Preds[0].Table, ColIdx: q.Preds[0].ColIdx}]
			if byCol[c] == nil {
				perm := make([]int, len(base))
				for i := range perm {
					perm[i] = i
				}
				sort.Slice(perm, func(a, b int) bool { return base[perm[a]][c].Compare(base[perm[b]][c]) < 0 })
				byCol[c] = perm
			}
		}
		// Filter the statements of the group in parallel; the base rows
		// are only read.
		workers := runtime.GOMAXPROCS(0)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(g.stmts); i += workers {
					q := g.stmts[i]
					a := filterProject(base, all, byCol, g.pos, q)
					mu.Lock()
					want[q.SQL] = a
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
	}
	return want, nil
}

// filterProject answers one single-tree query from its group's base
// rows (all lists their indexes). byCol orders the rows on each
// first-predicate column, so a less-than first predicate scans only the
// rows that can match it.
func filterProject(base []schema.Row, all []int, byCol map[int][]int, pos map[query.Proj]int, q *query.Query) answer {
	preds := make([]int, len(q.Preds))
	for i, p := range q.Preds {
		preds[i] = pos[query.Proj{Table: p.Table, ColIdx: p.ColIdx}]
	}
	proj := make([]int, len(q.Projections))
	for i, p := range q.Projections {
		proj[i] = pos[p]
	}
	order := all
	if len(q.Preds) > 0 {
		order = byCol[preds[0]]
		if first := q.Preds[0]; first.Op == sqlparse.OpLt {
			c := preds[0]
			order = order[:sort.Search(len(order), func(i int) bool {
				return base[order[i]][c].Compare(first.Lo) >= 0
			})]
		}
	}
	var a answer
	row := make(schema.Row, len(proj))
next:
	for _, i := range order {
		b := base[i]
		for j, p := range q.Preds {
			if !match(p.Op, b[preds[j]], p.Lo, p.Hi) {
				continue next
			}
		}
		a.rows++
		if q.CountOnly {
			continue
		}
		for j, c := range proj {
			row[j] = b[c]
		}
		a.sum += rowHash(row)
	}
	if q.CountOnly {
		return digest([]schema.Row{{schema.IntVal(int64(a.rows))}})
	}
	return a
}

// match is the reference engine's predicate semantics.
func match(op sqlparse.CompareOp, v, lo, hi schema.Value) bool {
	cmp := v.Compare(lo)
	switch op {
	case sqlparse.OpEq:
		return cmp == 0
	case sqlparse.OpNe:
		return cmp != 0
	case sqlparse.OpLt:
		return cmp < 0
	case sqlparse.OpLe:
		return cmp <= 0
	case sqlparse.OpGt:
		return cmp > 0
	case sqlparse.OpGe:
		return cmp >= 0
	case sqlparse.OpBetween:
		return cmp >= 0 && v.Compare(hi) <= 0
	}
	return false
}
