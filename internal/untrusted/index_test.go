package untrusted

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ghostdb/internal/bus"
	"ghostdb/internal/query"
	"ghostdb/internal/schema"
	"ghostdb/internal/sqlparse"
	"ghostdb/internal/store"
)

// visModel mirrors one table of an Engine as plain encoded columns, so
// the row-at-a-time scan below can answer every Vis independently of the
// engine's indexes.
type visModel struct {
	tb   *schema.Table
	rows int
	cols map[int][]byte // visible column index → rows × width bytes
}

// scanVis is the reference Vis: every row, every predicate, comparing
// encoded values with bytes.Compare. It returns what ComputeVis must.
func (m *visModel) scanVis(t *testing.T, preds []query.Pred, projCols []int) *VisResult {
	t.Helper()
	res := &VisResult{Table: m.tb.Index, ProjCols: projCols, RowWidth: store.IDBytes}
	for _, ci := range projCols {
		res.RowWidth += m.tb.Columns[ci].EncodedWidth()
	}
	for row := 0; row < m.rows; row++ {
		ok := true
		for _, p := range preds {
			if !m.match(t, p, row) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		res.IDs = append(res.IDs, uint32(row))
		if len(projCols) > 0 {
			res.Rows = binary.BigEndian.AppendUint32(res.Rows, uint32(row))
			for _, ci := range projCols {
				w := m.tb.Columns[ci].EncodedWidth()
				res.Rows = append(res.Rows, m.cols[ci][row*w:(row+1)*w]...)
			}
		}
	}
	res.Bytes = 4 + len(res.IDs)*store.IDBytes
	if len(projCols) > 0 {
		res.Bytes = 4 + len(res.Rows)
	}
	return res
}

func (m *visModel) match(t *testing.T, p query.Pred, row int) bool {
	var r, rHi int
	if p.ColIdx == query.IDCol {
		id := int64(row)
		r, rHi = cmp.Compare(id, p.Lo.I), cmp.Compare(id, p.Hi.I)
	} else {
		w := m.tb.Columns[p.ColIdx].EncodedWidth()
		v := m.cols[p.ColIdx][row*w : (row+1)*w]
		r = bytes.Compare(v, encode(t, w, p.Lo))
		if p.Op == sqlparse.OpBetween {
			rHi = bytes.Compare(v, encode(t, w, p.Hi))
		}
	}
	switch p.Op {
	case sqlparse.OpEq:
		return r == 0
	case sqlparse.OpNe:
		return r != 0
	case sqlparse.OpLt:
		return r < 0
	case sqlparse.OpLe:
		return r <= 0
	case sqlparse.OpGt:
		return r > 0
	case sqlparse.OpGe:
		return r >= 0
	case sqlparse.OpBetween:
		return r >= 0 && rHi <= 0
	}
	return false
}

func encode(t *testing.T, w int, v schema.Value) []byte {
	t.Helper()
	b := make([]byte, w)
	if err := schema.EncodeValue(b, v); err != nil {
		t.Fatal(err)
	}
	return b
}

// propTable has a char, an int and a float visible column and a hidden
// one the engine never sees.
func propTable(t *testing.T) (*Engine, *schema.Table) {
	t.Helper()
	sch, err := schema.New([]schema.TableDef{{Name: "P", Columns: []schema.Column{
		{Name: "c", Kind: schema.KindChar, Width: 3},
		{Name: "i", Kind: schema.KindInt},
		{Name: "f", Kind: schema.KindFloat},
		{Name: "h", Kind: schema.KindChar, Width: 3, Hidden: true},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(sch, bus.NewChannel(1.5)), sch.Tables[0]
}

// randValue draws from a small domain, so columns carry heavy
// duplicates. "a" and "a " encode alike; 0.0 and -0.0 encode apart.
func randValue(rng *rand.Rand, k schema.Kind) schema.Value {
	switch k {
	case schema.KindChar:
		return schema.CharVal([]string{"", "a", "a ", "ab", "b", "zz"}[rng.Intn(6)])
	case schema.KindInt:
		return schema.IntVal(int64(rng.Intn(9) - 4))
	default:
		return schema.FloatVal([]float64{-2.5, math.Copysign(0, -1), 0, 0.5, 3.25}[rng.Intn(5)])
	}
}

func randColumn(t *testing.T, rng *rand.Rand, col schema.Column, rows int) []byte {
	w := col.EncodedWidth()
	data := make([]byte, 0, rows*w)
	for r := 0; r < rows; r++ {
		data = append(data, encode(t, w, randValue(rng, col.Kind))...)
	}
	return data
}

func randPred(rng *rand.Rand, tb *schema.Table, rows int) query.Pred {
	ops := []sqlparse.CompareOp{sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe,
		sqlparse.OpGt, sqlparse.OpGe, sqlparse.OpBetween}
	p := query.Pred{Table: tb.Index, Op: ops[rng.Intn(len(ops))]}
	if ci := rng.Intn(4); ci < 3 {
		p.ColIdx = ci
		p.Lo = randValue(rng, tb.Columns[ci].Kind)
		p.Hi = randValue(rng, tb.Columns[ci].Kind)
		return p
	}
	p.ColIdx = query.IDCol
	id := func() int64 {
		switch rng.Intn(10) {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		}
		return int64(rng.Intn(rows+7) - 3) // out of range on both sides
	}
	p.Lo, p.Hi = schema.IntVal(id()), schema.IntVal(id())
	return p
}

// TestIndexedVisMatchesScan checks the index-served CountVis and
// ComputeVis against the row-at-a-time scan on random tables, with
// inserts, updates and column reloads interleaved between the checks.
func TestIndexedVisMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, tb := propTable(t)
		m := &visModel{tb: tb, cols: map[int][]byte{}}
		switch seed % 3 {
		case 0:
			m.rows = 0
		case 1:
			m.rows = 1 + rng.Intn(8)
		default:
			m.rows = rng.Intn(400)
		}
		for ci := 0; ci < 3; ci++ {
			m.cols[ci] = randColumn(t, rng, tb.Columns[ci], m.rows)
			if err := e.LoadColumn(tb.Index, ci, tb.Columns[ci].EncodedWidth(), bytes.Clone(m.cols[ci])); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 80; step++ {
			switch rng.Intn(10) {
			case 0: // insert
				vals := make([]schema.Value, 3)
				for ci := range vals {
					vals[ci] = randValue(rng, tb.Columns[ci].Kind)
					m.cols[ci] = append(m.cols[ci], encode(t, tb.Columns[ci].EncodedWidth(), vals[ci])...)
				}
				if err := e.InsertRow(tb.Index, vals); err != nil {
					t.Fatal(err)
				}
				m.rows++
			case 1: // update a few rows of one column
				ci := rng.Intn(3)
				v := randValue(rng, tb.Columns[ci].Kind)
				w := tb.Columns[ci].EncodedWidth()
				var ids []uint32
				for k := rng.Intn(5); k > 0 && m.rows > 0; k-- {
					id := rng.Intn(m.rows)
					ids = append(ids, uint32(id))
					copy(m.cols[ci][id*w:], encode(t, w, v))
				}
				if err := e.UpdateRows(tb.Index, ci, ids, v); err != nil {
					t.Fatal(err)
				}
			case 2: // reload one column wholesale
				ci := rng.Intn(3)
				m.cols[ci] = randColumn(t, rng, tb.Columns[ci], m.rows)
				if err := e.LoadColumn(tb.Index, ci, tb.Columns[ci].EncodedWidth(), bytes.Clone(m.cols[ci])); err != nil {
					t.Fatal(err)
				}
			default:
				preds := make([]query.Pred, rng.Intn(4))
				for i := range preds {
					preds[i] = randPred(rng, tb, m.rows)
				}
				var proj []int
				for ci := 0; ci < 3; ci++ {
					if rng.Intn(3) == 0 {
						proj = append(proj, ci)
					}
				}
				want := m.scanVis(t, preds, proj)
				n, err := e.CountVis(tb.Index, preds)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.ComputeVis(tb.Index, preds, proj)
				if err != nil {
					t.Fatal(err)
				}
				ctx := fmt.Sprintf("seed %d step %d rows %d preds %+v proj %v", seed, step, m.rows, preds, proj)
				if n != len(want.IDs) {
					t.Fatalf("%s: CountVis = %d, scan = %d", ctx, n, len(want.IDs))
				}
				if !slices.Equal(got.IDs, want.IDs) || !bytes.Equal(got.Rows, want.Rows) ||
					got.Bytes != want.Bytes || got.RowWidth != want.RowWidth {
					t.Fatalf("%s: ComputeVis ids %v bytes %d, scan ids %v bytes %d",
						ctx, got.IDs, got.Bytes, want.IDs, want.Bytes)
				}
			}
		}
	}
}

// TestUpdateRowsAllOrNothing: an out-of-range id after valid ones must
// fail before anything is written, leaving the column bytes and the
// index-served counts as they were.
func TestUpdateRowsAllOrNothing(t *testing.T) {
	e, _, sch := testEngine(t)
	loadRows(t, e, sch, []string{"aa", "bb", "cc"}, []int64{1, 2, 3})
	eq := func(x int64) []query.Pred {
		return []query.Pred{{Table: 0, ColIdx: 1, Op: sqlparse.OpEq, Lo: schema.IntVal(x)}}
	}
	// Build the index before the failed update.
	if n, err := e.CountVis(0, eq(9)); err != nil || n != 0 {
		t.Fatalf("count = %d, %v", n, err)
	}
	if err := e.UpdateRows(0, 1, []uint32{0, 2, 3}, schema.IntVal(9)); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	for row, want := range []int64{1, 2, 3} {
		v, err := e.Value(0, 1, uint32(row))
		if err != nil || v.I != want {
			t.Fatalf("row %d = %v %v, want %d", row, v, err, want)
		}
	}
	for x, want := range map[int64]int{9: 0, 1: 1, 3: 1} {
		if n, err := e.CountVis(0, eq(x)); err != nil || n != want {
			t.Fatalf("count(num = %d) = %d %v, want %d", x, n, err, want)
		}
	}
	// A valid update then shows through the rebuilt index.
	if err := e.UpdateRows(0, 1, []uint32{0, 2}, schema.IntVal(9)); err != nil {
		t.Fatal(err)
	}
	if n, err := e.CountVis(0, eq(9)); err != nil || n != 2 {
		t.Fatalf("count after update = %d, %v", n, err)
	}
}

// TestInsertRowAllOrNothing: a row rejected for its arity or a bad value
// must not leave a partial append behind.
func TestInsertRowAllOrNothing(t *testing.T) {
	e, _, sch := testEngine(t)
	loadRows(t, e, sch, []string{"aa"}, []int64{1})
	if err := e.InsertRow(0, []schema.Value{schema.CharVal("bb")}); err == nil {
		t.Fatal("short insert accepted")
	}
	if err := e.InsertRow(0, []schema.Value{schema.CharVal("toolong"), schema.IntVal(2)}); err == nil {
		t.Fatal("oversized value accepted")
	}
	if err := e.InsertRow(0, []schema.Value{schema.CharVal("cc"), schema.IntVal(3)}); err != nil {
		t.Fatal(err)
	}
	vr, err := e.ComputeVis(0, nil, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.Rows(0) != 2 || len(vr.Rows) != 2*vr.RowWidth || string(vr.Rows[vr.RowWidth+4:vr.RowWidth+8]) != "cc  " {
		t.Fatalf("rows = %d, shipped %q", e.Rows(0), vr.Rows)
	}
}

// TestConcurrentVisAndInsert races index builds and index-served reads
// against inserts into the same column; run it under -race.
func TestConcurrentVisAndInsert(t *testing.T) {
	e, _, sch := testEngine(t)
	const rows, inserts = 2000, 300
	vals := make([]string, rows)
	nums := make([]int64, rows)
	for i := range nums {
		vals[i] = "aa"
		nums[i] = int64(i % 50)
	}
	loadRows(t, e, sch, vals, nums)
	preds := []query.Pred{{Table: 0, ColIdx: 1, Op: sqlparse.OpLt, Lo: schema.IntVal(10)}}
	var wg sync.WaitGroup
	errs := make(chan error, 17)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if g%2 == 0 {
					if _, err := e.CountVis(0, preds); err != nil {
						errs <- err
						return
					}
					continue
				}
				vr, err := e.ComputeVis(0, preds, []int{1})
				if err != nil {
					errs <- err
					return
				}
				if !slices.IsSorted(vr.IDs) {
					errs <- fmt.Errorf("ids out of order")
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < inserts; i++ {
			if err := e.InsertRow(0, []schema.Value{schema.CharVal("bb"), schema.IntVal(int64(i % 20))}); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// 2000 rows with num%50 < 10, plus 300 inserts with num%20 < 10.
	if n, err := e.CountVis(0, preds); err != nil || n != 400+150 {
		t.Fatalf("final count = %d, %v", n, err)
	}
}
