// Package untrusted implements the powerful-but-insecure side of GhostDB:
// the personal computer (or remote server) holding the Visible partition
// of every table. It evaluates the Visible conjuncts of a query and ships
// the resulting identifier lists — and any projected visible attribute
// values — down to the Secure USB key over the bus.
//
// Security model (§2.1): Untrusted sees only the query text and its own
// Visible data. It cannot filter what it sends using Hidden information
// (it has none), so the lists it produces may contain many irrelevant
// tuples; Secure must filter them out quickly (design rule 2, §2.3).
// Untrusted compute is modeled as free — the paper's costs are dominated
// by Secure-side I/O and the link.
//
// Vis and the planner's CountVis are served from sorted visible-column
// indexes: per column a predicate touches, the row numbers ordered by
// (encoded value, row), built on first use, kept current by InsertRow
// and dropped by UpdateRows and LoadColumn. Each predicate binary-searches
// to a span of its index, and the narrowest span's rows are checked
// against the other conjuncts. The indexes are built from visible data
// only and never leave this side; the ids, shipped bytes and counts they
// produce are exactly those of a row-at-a-time scan, so neither the bus
// nor the planner sees any difference.
package untrusted

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"ghostdb/internal/bus"
	"ghostdb/internal/cache"
	"ghostdb/internal/query"
	"ghostdb/internal/schema"
	"ghostdb/internal/sqlparse"
	"ghostdb/internal/store"
)

// Engine is the untrusted visible-data processor. It is safe for
// concurrent use: the query planner reads selectivity counts outside the
// secure token's serial execution slot, so reads and inserts may overlap.
type Engine struct {
	sch    *schema.Schema
	ch     *bus.Channel
	mu     sync.RWMutex
	tables []*tableStore
	// pc, when set, caches encoded Vis runs keyed on canonical per-table
	// predicate text (VisKey). Cached values are shared *VisResult
	// pointers and immutable by contract; pcShard is the shard whose
	// version vector stamps and invalidates this engine's frames.
	pc      *cache.Cache
	pcShard int
}

type tableStore struct {
	rows int
	cols []colStore // aligned with schema Columns; hidden slots empty
	// idxMu serialises the lazy build of colStore.sorted: readers hold
	// only the engine's read lock, so two of them may reach an unbuilt
	// index at once. Writers hold the write lock and maintain or drop
	// indexes without it.
	idxMu sync.Mutex
}

type colStore struct {
	width   int
	data    []byte
	present bool
	// sorted is the column's visible-value index: every row number,
	// ordered by (encoded value, row) under bytes.Compare — the order
	// matches compares in. nil until a predicate first touches the
	// column, and dropped whenever the column is rewritten.
	sorted []uint32
}

// value returns the encoded value of one row.
func (c *colStore) value(row uint32) []byte {
	return c.data[int(row)*c.width : (int(row)+1)*c.width]
}

// cut returns the first position of the column's index whose value is
// >= v, or > v when strict.
func (c *colStore) cut(v []byte, strict bool) int {
	return sort.Search(len(c.sorted), func(i int) bool {
		r := bytes.Compare(c.value(c.sorted[i]), v)
		return r > 0 || (r == 0 && !strict)
	})
}

// index returns the sorted index of column ci, building it on first
// use. The caller holds at least the engine's read lock.
func (ts *tableStore) index(ci int) *colStore {
	ts.idxMu.Lock()
	defer ts.idxMu.Unlock()
	c := &ts.cols[ci]
	if c.sorted == nil {
		perm := make([]uint32, ts.rows)
		for i := range perm {
			perm[i] = uint32(i)
		}
		slices.SortFunc(perm, func(a, b uint32) int {
			if r := bytes.Compare(c.value(a), c.value(b)); r != 0 {
				return r
			}
			return cmp.Compare(a, b)
		})
		c.sorted = perm
	}
	return c
}

// NewEngine creates an empty untrusted store for the schema.
func NewEngine(sch *schema.Schema, ch *bus.Channel) *Engine {
	e := &Engine{sch: sch, ch: ch, tables: make([]*tableStore, len(sch.Tables))}
	for i, t := range sch.Tables {
		e.tables[i] = &tableStore{cols: make([]colStore, len(t.Columns))}
	}
	return e
}

// LoadColumn installs the encoded values of one visible column (width
// bytes per row). Hidden columns must never be loaded here.
func (e *Engine) LoadColumn(table, colIdx int, width int, data []byte) error {
	t := e.sch.Tables[table]
	if colIdx < 0 || colIdx >= len(t.Columns) {
		return fmt.Errorf("untrusted: bad column %d for %q", colIdx, t.Name)
	}
	col := t.Columns[colIdx]
	if col.Hidden {
		return fmt.Errorf("untrusted: refusing hidden column %s.%s", t.Name, col.Name)
	}
	if width != col.EncodedWidth() {
		return fmt.Errorf("untrusted: width %d != %d for %s.%s", width, col.EncodedWidth(), t.Name, col.Name)
	}
	if len(data)%width != 0 {
		return fmt.Errorf("untrusted: ragged column data for %s.%s", t.Name, col.Name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ts := e.tables[table]
	n := len(data) / width
	if ts.rows == 0 {
		ts.rows = n
	} else if ts.rows != n {
		return fmt.Errorf("untrusted: column %s.%s has %d rows, table has %d", t.Name, col.Name, n, ts.rows)
	}
	ts.cols[colIdx] = colStore{width: width, data: data, present: true}
	return nil
}

// SetRows fixes the row count for tables with no visible columns.
func (e *Engine) SetRows(table, rows int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	ts := e.tables[table]
	if ts.rows != 0 && ts.rows != rows {
		return fmt.Errorf("untrusted: row count mismatch: %d vs %d", ts.rows, rows)
	}
	ts.rows = rows
	return nil
}

// Rows returns the visible row count of a table.
func (e *Engine) Rows(table int) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.tables[table].rows
}

// InsertRow appends the visible values of a new tuple (aligned with the
// table's visible columns, in declaration order). Every value is encoded
// before the store is touched, so a rejected row changes nothing.
func (e *Engine) InsertRow(table int, visible []schema.Value) error {
	t := e.sch.Tables[table]
	enc := make([][]byte, len(t.Columns))
	vi := 0
	for ci, col := range t.Columns {
		if col.Hidden {
			continue
		}
		if vi >= len(visible) {
			return fmt.Errorf("untrusted: missing value for %s.%s", t.Name, col.Name)
		}
		enc[ci] = make([]byte, col.EncodedWidth())
		if err := schema.EncodeValue(enc[ci], visible[vi]); err != nil {
			return fmt.Errorf("untrusted: %s.%s: %w", t.Name, col.Name, err)
		}
		vi++
	}
	if vi != len(visible) {
		return fmt.Errorf("untrusted: %d visible values for %d visible columns", len(visible), vi)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ts := e.tables[table]
	row := uint32(ts.rows)
	for ci, v := range enc {
		if v == nil {
			continue
		}
		c := &ts.cols[ci]
		if !c.present {
			*c = colStore{width: len(v), present: true}
		}
		c.data = append(c.data, v...)
		if c.sorted != nil {
			// The new row has the largest number, so it sorts after
			// every row holding an equal value.
			pos := c.cut(v, true)
			c.sorted = append(c.sorted, 0)
			copy(c.sorted[pos+1:], c.sorted[pos:])
			c.sorted[pos] = row
		}
	}
	ts.rows++
	return nil
}

// UpdateRows overwrites one visible column of the listed rows in place.
// The caller (the resolver's write-path rule) guarantees ids were
// derived from visible predicates or id arithmetic only — public data —
// so handing the matched set to the untrusted store reveals nothing a
// spy could not compute itself from the statement text.
func (e *Engine) UpdateRows(table, colIdx int, ids []uint32, v schema.Value) error {
	t := e.sch.Tables[table]
	if colIdx < 0 || colIdx >= len(t.Columns) || t.Columns[colIdx].Hidden {
		return fmt.Errorf("untrusted: bad visible column %d for %q", colIdx, t.Name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ts := e.tables[table]
	c := &ts.cols[colIdx]
	if !c.present {
		return fmt.Errorf("untrusted: column %s.%s not loaded", t.Name, t.Columns[colIdx].Name)
	}
	buf := make([]byte, c.width)
	if err := schema.EncodeValue(buf, v); err != nil {
		return fmt.Errorf("untrusted: %s.%s: %w", t.Name, t.Columns[colIdx].Name, err)
	}
	// Validate every id before writing any, so a bad id leaves the
	// column and its index as they were.
	for _, id := range ids {
		if int(id) >= ts.rows {
			return fmt.Errorf("untrusted: row %d out of range for %q", id, t.Name)
		}
	}
	for _, id := range ids {
		copy(c.value(id), buf)
	}
	if len(ids) > 0 {
		c.sorted = nil
	}
	return nil
}

// matches evaluates one resolved predicate against a row.
func (ts *tableStore) matches(p query.Pred, row uint32, lo, hi []byte) bool {
	if p.ColIdx == query.IDCol {
		id := int64(row)
		switch p.Op {
		case sqlparse.OpEq:
			return id == p.Lo.I
		case sqlparse.OpNe:
			return id != p.Lo.I
		case sqlparse.OpLt:
			return id < p.Lo.I
		case sqlparse.OpLe:
			return id <= p.Lo.I
		case sqlparse.OpGt:
			return id > p.Lo.I
		case sqlparse.OpGe:
			return id >= p.Lo.I
		case sqlparse.OpBetween:
			return id >= p.Lo.I && id <= p.Hi.I
		}
		return false
	}
	v := ts.cols[p.ColIdx].value(row)
	r := bytes.Compare(v, lo)
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
		return r >= 0 && bytes.Compare(v, hi) <= 0
	}
	return false
}

// span is a half-open range [lo, hi) of positions in a key order.
type span struct{ lo, hi int }

// opSpans maps a comparison onto a key order of n positions: the rows
// satisfying it are those at one span, or two for OpNe. cut(k, strict)
// returns the first position whose key is >= bound k (0 for Lo, 1 for
// Hi), or > it when strict.
func opSpans(op sqlparse.CompareOp, n int, cut func(k int, strict bool) int) [2]span {
	switch op {
	case sqlparse.OpEq:
		return [2]span{{cut(0, false), cut(0, true)}}
	case sqlparse.OpNe:
		return [2]span{{0, cut(0, false)}, {cut(0, true), n}}
	case sqlparse.OpLt:
		return [2]span{{0, cut(0, false)}}
	case sqlparse.OpLe:
		return [2]span{{0, cut(0, true)}}
	case sqlparse.OpGt:
		return [2]span{{cut(0, true), n}}
	case sqlparse.OpGe:
		return [2]span{{cut(0, false), n}}
	case sqlparse.OpBetween:
		lo := cut(0, false)
		return [2]span{{lo, max(lo, cut(1, true))}}
	}
	return [2]span{}
}

// candidates is the row set a Vis conjunction is answered from: the
// rows at spans of perm (or the row numbers themselves when perm is
// nil). Every row satisfying the conjunction is among them, and every
// one satisfies predicate drive, so only the other conjuncts are left to
// check.
type candidates struct {
	perm  []uint32
	spans [2]span
	n     int // rows in the spans
	drive int // index of the driving predicate, -1 when there is none
}

// narrowest binary-searches every predicate to its spans — of the row
// range for an id predicate, of the column's sorted index otherwise —
// and returns the smallest candidate set. With no predicates every row
// is a candidate. The caller holds at least the engine's read lock.
func (ts *tableStore) narrowest(preds []query.Pred, los, his [][]byte) candidates {
	best := candidates{spans: [2]span{{0, ts.rows}}, n: ts.rows, drive: -1}
	for i, p := range preds {
		c := candidates{drive: i}
		if p.ColIdx == query.IDCol {
			bounds := [2]int64{p.Lo.I, p.Hi.I}
			c.spans = opSpans(p.Op, ts.rows, func(k int, strict bool) int {
				x := bounds[k]
				if strict && x < math.MaxInt64 {
					x++
				}
				return int(min(max(x, 0), int64(ts.rows)))
			})
		} else {
			col := ts.index(p.ColIdx)
			bounds := [2][]byte{los[i], his[i]}
			c.perm = col.sorted
			c.spans = opSpans(p.Op, ts.rows, func(k int, strict bool) int {
				return col.cut(bounds[k], strict)
			})
		}
		c.n = c.spans[0].hi - c.spans[0].lo + c.spans[1].hi - c.spans[1].lo
		if i == 0 || c.n < best.n {
			best = c
		}
	}
	return best
}

// each calls fn, in candidate order, on every candidate row that
// satisfies the conjuncts other than the driver.
func (ts *tableStore) each(c *candidates, preds []query.Pred, los, his [][]byte, fn func(row uint32)) {
	for _, s := range c.spans {
	rows:
		for i := s.lo; i < s.hi; i++ {
			row := uint32(i)
			if c.perm != nil {
				row = c.perm[i]
			}
			for j, p := range preds {
				if j != c.drive && !ts.matches(p, row, los[j], his[j]) {
					continue rows
				}
			}
			fn(row)
		}
	}
}

// VisResult is the product of the Vis operator (§3.3): the sorted list of
// identifiers of tuples satisfying every Visible predicate of the query
// on one table, together with the projected visible attribute values.
type VisResult struct {
	Table    int
	IDs      []uint32 // ascending
	ProjCols []int    // visible column positions shipped with each id
	RowWidth int      // bytes per shipped row: 4 (id) + Σ col widths
	Rows     []byte   // len(IDs) rows of RowWidth bytes (empty if no cols)
	Bytes    int      // bytes that crossed the link
}

// encodePredBounds validates the visible predicates of one table and
// pre-encodes their comparison bounds. The caller holds at least a read
// lock.
func (e *Engine) encodePredBounds(table int, preds []query.Pred) (los, his [][]byte, err error) {
	t := e.sch.Tables[table]
	ts := e.tables[table]
	los = make([][]byte, len(preds))
	his = make([][]byte, len(preds))
	for i, p := range preds {
		// Identifier predicates are acceptable even though the resolver
		// routes them to Secure by default: ids are replicated on both
		// sides (§2.1) and reveal nothing.
		if p.ColIdx == query.IDCol {
			continue
		}
		if p.Hidden {
			return nil, nil, fmt.Errorf("untrusted: refusing hidden predicate on %s", t.Name)
		}
		col := t.Columns[p.ColIdx]
		if col.Hidden {
			return nil, nil, fmt.Errorf("untrusted: refusing hidden column %s.%s", t.Name, col.Name)
		}
		if !ts.cols[p.ColIdx].present {
			return nil, nil, fmt.Errorf("untrusted: column %s.%s not loaded", t.Name, col.Name)
		}
		w := col.EncodedWidth()
		los[i] = make([]byte, w)
		if err := schema.EncodeValue(los[i], p.Lo); err != nil {
			return nil, nil, err
		}
		if p.Op == sqlparse.OpBetween {
			his[i] = make([]byte, w)
			if err := schema.EncodeValue(his[i], p.Hi); err != nil {
				return nil, nil, err
			}
		}
	}
	return los, his, nil
}

// CountVis counts the rows of one table satisfying the visible
// conjunction without shipping anything: the planner's selectivity
// source. Untrusted compute is free in the paper's cost model and the
// count travels alongside the query exchange, so nothing is metered.
func (e *Engine) CountVis(table int, preds []query.Pred) (int, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ts := e.tables[table]
	los, his, err := e.encodePredBounds(table, preds)
	if err != nil {
		return 0, err
	}
	c := ts.narrowest(preds, los, his)
	if len(preds) < 2 {
		return c.n, nil
	}
	n := 0
	ts.each(&c, preds, los, his, func(uint32) { n++ })
	return n, nil
}

// SetPageCache attaches the untrusted-side page cache: ComputeVis will
// serve repeated canonical keys from it instead of rescanning and
// re-encoding. shard is the secure token this engine fronts, so
// committed writes invalidate exactly this engine's frames via
// cache.BumpShard.
func (e *Engine) SetPageCache(pc *cache.Cache, shard int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pc, e.pcShard = pc, shard
}

// VisKey canonicalizes one table's Vis computation: table name, each
// resolved predicate's column/operator/bounds, and the projected
// columns. It is a deterministic function of the resolved query text —
// the one thing GhostDB's model already reveals — so using it as a
// cache key leaks nothing (hit-or-miss is predictable from the public
// query history alone).
func (e *Engine) VisKey(table int, preds []query.Pred, projCols []int) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "vis|%s", e.sch.Tables[table].Name)
	for _, p := range preds {
		fmt.Fprintf(&b, "|p%d.%d:%v:%v", p.ColIdx, p.Op, p.Lo, p.Hi)
	}
	b.WriteString("|c")
	for _, ci := range projCols {
		fmt.Fprintf(&b, ".%d", ci)
	}
	return b.String()
}

// VisHeaderBytes is the size of the fixed control header shipped in
// place of a full Vis payload when the token already retains the
// identical spool from an earlier execution: a 4-byte row count, a
// 4-byte row width and an 8-byte version stamp. Its size is a constant
// of the protocol — never a function of data — so header shipments are
// indistinguishable from one another on the wire.
const VisHeaderBytes = 16

// ShipVisHeader meters the fixed header telling the token to reuse its
// retained, still-valid spool for this table instead of receiving the
// full run again. Returns the bus.Req so callers can coalesce several
// per-table shipments into one TransferBatch instead.
func (e *Engine) ShipVisHeader(table int) bus.Req {
	return bus.Req{Kind: "vis-hdr:" + e.sch.Tables[table].Name, Bytes: VisHeaderBytes}
}

// ShipVisReq describes the full Down shipment of a computed VisResult
// as a bus.Req, for coalescing with other tables' shipments.
func (e *Engine) ShipVisReq(res *VisResult) bus.Req {
	return bus.Req{Kind: "vis:" + e.sch.Tables[res.Table].Name, Bytes: res.Bytes}
}

// Ship meters one prepared request on the Down link.
func (e *Engine) Ship(req bus.Req) error {
	return e.ch.Transfer(bus.Down, req.Kind, req.Bytes, "")
}

// ShipBatch meters several prepared requests as one coalesced Down
// round-trip.
func (e *Engine) ShipBatch(reqs []bus.Req) error {
	return e.ch.TransferBatch(bus.Down, reqs)
}

// ComputeVis evaluates the visible conjunction for one table without
// metering anything: untrusted compute is free in the paper's cost
// model, and the caller decides how the result reaches the token
// (ShipVisReq for the full payload, ShipVisHeader when the token
// retains the identical spool). Repeated canonical keys are served from
// the page cache when one is attached — the returned *VisResult is then
// shared and must be treated as immutable, which every reader in
// internal/exec already does.
func (e *Engine) ComputeVis(table int, preds []query.Pred, projCols []int) (*VisResult, error) {
	if e.pc == nil {
		return e.computeVis(table, preds, projCols)
	}
	key := e.VisKey(table, preds, projCols)
	if v, ok := e.pc.Get(key); ok {
		return v.(*VisResult), nil
	}
	stamp := e.pc.Stamp([]int{e.pcShard})
	res, err := e.computeVis(table, preds, projCols)
	if err != nil {
		return nil, err
	}
	size := int64(len(res.Rows) + len(res.IDs)*store.IDBytes + 64)
	e.pc.Put(key, res, size, []int{e.pcShard}, stamp)
	return res, nil
}

// Vis evaluates the visible conjunction for one table and transfers the
// result down to Secure, accounting every byte on the channel. projCols
// lists the visible columns whose values the projection will need.
func (e *Engine) Vis(table int, preds []query.Pred, projCols []int) (*VisResult, error) {
	res, err := e.ComputeVis(table, preds, projCols)
	if err != nil {
		return nil, err
	}
	if err := e.Ship(e.ShipVisReq(res)); err != nil {
		return nil, err
	}
	return res, nil
}

// computeVis is the uncached evaluate-and-encode: every row satisfying
// the visible conjunction yields its id (and, with projCols, its encoded
// visible values), in ascending id order.
func (e *Engine) computeVis(table int, preds []query.Pred, projCols []int) (*VisResult, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t := e.sch.Tables[table]
	ts := e.tables[table]
	los, his, err := e.encodePredBounds(table, preds)
	if err != nil {
		return nil, err
	}
	res := &VisResult{Table: table, ProjCols: projCols, RowWidth: store.IDBytes}
	for _, ci := range projCols {
		col := t.Columns[ci]
		if col.Hidden {
			return nil, fmt.Errorf("untrusted: cannot project hidden column %s.%s", t.Name, col.Name)
		}
		if !ts.cols[ci].present {
			return nil, fmt.Errorf("untrusted: column %s.%s not loaded", t.Name, col.Name)
		}
		res.RowWidth += col.EncodedWidth()
	}
	// Candidates come in index order; a bitmap over the rows puts the
	// matches back in ascending id order.
	c := ts.narrowest(preds, los, his)
	hit := make([]uint64, (ts.rows+63)/64)
	n := 0
	ts.each(&c, preds, los, his, func(row uint32) {
		hit[row/64] |= 1 << (row % 64)
		n++
	})
	if n > 0 {
		res.IDs = make([]uint32, 0, n)
		if len(projCols) > 0 {
			res.Rows = make([]byte, 0, n*res.RowWidth)
		}
	}
	for w, bitsLeft := range hit {
		for bitsLeft != 0 {
			row := uint32(w*64 + bits.TrailingZeros64(bitsLeft))
			bitsLeft &= bitsLeft - 1
			res.IDs = append(res.IDs, row)
			if len(projCols) > 0 {
				res.Rows = binary.BigEndian.AppendUint32(res.Rows, row)
				for _, ci := range projCols {
					res.Rows = append(res.Rows, ts.cols[ci].value(row)...)
				}
			}
		}
	}
	// Account the transfer size: a 4-byte count header, then either bare
	// ids or full (id, values) rows. The bytes are metered at ship time.
	res.Bytes = 4
	if len(projCols) > 0 {
		res.Bytes += len(res.Rows)
	} else {
		res.Bytes += len(res.IDs) * store.IDBytes
	}
	return res, nil
}

// Value decodes one stored visible value (final result assembly of
// visible-only queries, and tests).
func (e *Engine) Value(table, colIdx int, id uint32) (schema.Value, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t := e.sch.Tables[table]
	ts := e.tables[table]
	c := &ts.cols[colIdx]
	if !c.present {
		return schema.Value{}, fmt.Errorf("untrusted: column %s.%s not loaded", t.Name, t.Columns[colIdx].Name)
	}
	return schema.DecodeValue(c.value(id), t.Columns[colIdx].Kind)
}
