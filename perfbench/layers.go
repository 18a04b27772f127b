package main

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ghostdb/internal/cache"
	"ghostdb/internal/exec"
	"ghostdb/internal/obs"
	"ghostdb/internal/pagecache"
	"ghostdb/internal/query"
	"ghostdb/internal/sqlparse"
)

// opSpans are the engine's per-operator cost spans (children of every
// token session's "exec" span), reported as op.<name>.sim_us.
var opSpans = []string{"Vis", "CI", "Merge", "SJoin", "BF", "Store", "Project",
	"PostSelect", "Scan", "Delta", "Bus", "DML", "Compact"}

// layerTimingSample bounds how many of the window's statements the
// traced run re-times through the parser, resolver and planner.
const layerTimingSample = 1000

// layers accumulates the traced run's per-layer figures. Stats-derived
// counts cover every statement of the window; span-derived times cover
// the traced half of it.
type layers struct {
	db     *exec.DB
	tokens []*exec.Token

	mu          sync.Mutex
	stmts       int // successful statements observed
	executed    int // of which ran token sessions (not cache hits)
	traced      int // of which carried a span tree
	opSimUs     map[string]int64
	execHostUs  int64
	mergeUs     int64
	cacheUs     int64
	simMismatch int
	reads       uint64
	writes      uint64
	erases      uint64
	gcMoves     uint64
	down        uint64
	up          uint64
	ramHigh     int64
	grant       int64
	planMin     int64
	legs        int64
	queueWait   []float64
	depthMax    int

	leaks   int
	leakMsg string
}

func newLayers(db *exec.DB) *layers {
	l := &layers{db: db, opSimUs: map[string]int64{}}
	seen := map[*exec.Token]bool{}
	for _, t := range db.Sch.Tables {
		if tok := db.TokenOf(t.Index); !seen[tok] {
			seen[tok] = true
			l.tokens = append(l.tokens, tok)
		}
	}
	return l
}

// snap is the accessor state at the start of the window.
type snap struct {
	at        time.Time
	cache     cache.Stats
	pages     pagecache.Stats
	delta     []exec.DeltaStats
	coalesced uint64
}

func (l *layers) snapshot() snap {
	return snap{
		at:        time.Now(),
		cache:     l.db.CacheStats(),
		pages:     l.db.PageCacheStats(),
		delta:     l.db.TokenDeltaStats(),
		coalesced: l.db.BusCoalesced(),
	}
}

// observe folds one successful statement into the ledger.
func (l *layers) observe(res *exec.Result, tr *obs.Trace) {
	depth := 0
	for _, d := range l.db.TokenDeltaStats() {
		if d.Pages > depth {
			depth = d.Pages
		}
	}
	st := res.Stats
	l.mu.Lock()
	defer l.mu.Unlock()
	if depth > l.depthMax {
		l.depthMax = depth
	}
	l.stmts++
	l.reads += st.Flash.PageReads
	l.writes += st.Flash.PageWrites
	l.erases += st.Flash.BlockErases
	l.gcMoves += st.Flash.GCPageMoves
	l.down += st.BusDown
	l.up += st.BusUp
	if !st.CacheHit && !st.CacheShared {
		l.executed++
		l.ramHigh += int64(st.RAMHigh)
		l.grant += int64(st.GrantBuffers)
		l.planMin += int64(st.PlanMinBuffers)
		l.legs += int64(max(st.Scatter, 1))
		l.queueWait = append(l.queueWait, ms(st.QueueWait))
	}
	if tr != nil {
		l.traced++
		l.walk(tr.Snapshot(), st)
	}
}

// walk charges one statement's span tree: operator sim time and host
// time per token session, scatter merge time, and the result cache's
// self time. It also checks that the operator spans' simulated times add
// up to the statement's IOTime+CommTime: its SimTime for a one-token
// statement, the legs' total for a scatter (whose SimTime is its slowest
// leg).
func (l *layers) walk(root obs.SpanJSON, st exec.Stats) {
	var opSum, nOps int64
	var visit func(s obs.SpanJSON)
	visit = func(s obs.SpanJSON) {
		switch s.Name {
		case "exec":
			host := s.WallUs
			for _, c := range s.Children {
				if c.Name == "pace" {
					host -= c.WallUs
					continue
				}
				l.opSimUs[c.Name] += c.SimUs
				opSum += c.SimUs
				nOps++
			}
			l.execHostUs += max(host, 0)
			return
		case "merge":
			l.mergeUs += s.WallUs
		}
		for _, c := range s.Children {
			visit(c)
		}
	}
	visit(root)
	for i, c := range root.Children {
		if c.Name == "cache" {
			l.cacheUs += selfTime(i, root.Children)
		}
	}
	// Every span's sim_us is truncated to whole microseconds.
	if d := opSum - (st.IOTime + st.CommTime).Microseconds(); d > nOps+1 || d < -(nOps+1) {
		l.simMismatch++
	}
}

// selfTime is span i's wall time minus the part of it covered by the
// sibling spans that start inside it (on a cache miss, the plan and
// token-session spans the cache lookup waits for).
func selfTime(i int, sibs []obs.SpanJSON) int64 {
	c := sibs[i]
	lo, hi := c.StartUs, c.StartUs+c.WallUs
	var iv [][2]int64
	for j, s := range sibs {
		if j == i || s.StartUs < lo || s.StartUs > hi {
			continue
		}
		iv = append(iv, [2]int64{s.StartUs, min(s.StartUs+s.WallUs, hi)})
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var covered, end int64 = 0, lo
	for _, v := range iv {
		if v[0] > end {
			end = v[0]
		}
		if v[1] > end {
			covered += v[1] - end
			end = v[1]
		}
	}
	return max(c.WallUs-covered, 0)
}

// finish turns the ledger into the per-layer metrics.
func (l *layers) finish(before snap, win *window, stmts []string, rep *report) {
	after := l.snapshot()
	l.checkLeaks()
	per := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	ratio := func(num, den uint64) float64 { return per(float64(num), int(den)) }

	parseUs, resolveUs, planUs := l.timeLayers(stmts)
	put(rep, "sqlparse.parse_us", parseUs, "us")
	put(rep, "query.resolve_us", resolveUs, "us")
	put(rep, "exec.plan_us", planUs, "us")
	put(rep, "exec.host_us", per(float64(l.execHostUs), l.traced), "us")
	put(rep, "scatter.merge_us", per(float64(l.mergeUs), l.traced), "us")
	put(rep, "cache.lookup_us", per(float64(l.cacheUs), l.traced), "us")
	var compactUs int64
	for _, e := range l.db.SlowLog().Entries() {
		if e.Kind == "COMPACT" && e.Time.After(before.at) {
			compactUs += e.SimUs
		}
	}
	for _, op := range opSpans {
		v := per(float64(l.opSimUs[op]), l.traced)
		if op == "Compact" {
			// Compactions run in the background, outside any statement's
			// span tree; the slow log carries their sessions' cost.
			v = per(float64(compactUs), l.stmts)
		}
		put(rep, "op."+op+".sim_us", v, "us")
	}

	put(rep, "flash.page_reads_per_stmt", per(float64(l.reads), l.stmts), "pages")
	put(rep, "flash.page_writes_per_stmt", per(float64(l.writes), l.stmts), "pages")
	put(rep, "flash.block_erases", float64(l.erases), "count")
	put(rep, "flash.gc_page_moves", float64(l.gcMoves), "count")
	put(rep, "bus.down_bytes_per_stmt", per(float64(l.down), l.stmts), "bytes")
	put(rep, "bus.up_bytes_per_stmt", per(float64(l.up), l.stmts), "bytes")
	put(rep, "bus.coalesced", float64(after.coalesced-before.coalesced), "count")
	put(rep, "ram.high_water_bytes_mean", per(float64(l.ramHigh), l.executed), "bytes")

	c0, c1 := before.cache, after.cache
	lookups := (c1.Hits - c0.Hits) + (c1.SharedHits - c0.SharedHits) + (c1.Misses - c0.Misses)
	put(rep, "cache.hit_ratio", ratio(c1.Hits-c0.Hits, lookups), "ratio")
	put(rep, "cache.shared_ratio", ratio(c1.SharedHits-c0.SharedHits, lookups), "ratio")
	put(rep, "cache.evictions", float64(c1.Evictions-c0.Evictions), "count")
	put(rep, "cache.invalidations", float64(c1.Invalidations-c0.Invalidations), "count")
	put(rep, "cache.bytes", float64(c1.Bytes), "bytes")
	p0, p1 := before.pages, after.pages
	put(rep, "pagecache.hit_ratio", ratio(p1.Hits-p0.Hits, (p1.Hits-p0.Hits)+(p1.Misses-p0.Misses)), "ratio")
	put(rep, "pagecache.evictions", float64(p1.Evictions-p0.Evictions), "count")
	put(rep, "pagecache.invalidations", float64(p1.Invalidations-p0.Invalidations), "count")
	put(rep, "pagecache.bytes", float64(p1.Bytes), "bytes")

	put(rep, "sched.queue_wait_p50_ms", quantile(l.queueWait, 0.50), "ms")
	put(rep, "sched.queue_wait_p99_ms", quantile(l.queueWait, 0.99), "ms")
	put(rep, "sched.grant_buffers_mean", per(float64(l.grant), l.executed), "buffers")
	put(rep, "sched.plan_min_buffers_mean", per(float64(l.planMin), l.executed), "buffers")
	put(rep, "scatter.legs_per_stmt", per(float64(l.legs), l.executed), "legs")

	var compactions, dml uint64
	for i := range after.delta {
		compactions += after.delta[i].Compactions - before.delta[i].Compactions
		dml += after.delta[i].DMLStatements - before.delta[i].DMLStatements
	}
	put(rep, "delta.depth_pages_max", float64(l.depthMax), "pages")
	put(rep, "delta.compactions", float64(compactions), "count")
	put(rep, "delta.dml_committed", float64(dml), "count")

	put(rep, "bus.uplink_non_query", float64(l.leaks), "count")
	put(rep, "gen.late_ms_max", ms(win.late), "ms")
	overhead := 0.0
	if p := quantile(win.plainLat, 0.5); p > 0 {
		overhead = (quantile(win.tracedLat, 0.5)/p - 1) * 100
	}
	put(rep, "trace.overhead_pct", overhead, "%")
	put(rep, "trace.sim_sum_mismatch", float64(l.simMismatch), "count")
}

// checkLeaks reads every token's bus audit ring: an uplink record of any
// kind but the query text, or a record the ring dropped unchecked, is a
// leak violation.
func (l *layers) checkLeaks() {
	for _, tok := range l.tokens {
		for _, r := range tok.Bus.UplinkRecords() {
			if r.Kind != "query" {
				l.leaks++
				if l.leakMsg == "" {
					l.leakMsg = fmt.Sprintf("token %d: uplink record of kind %q (%d bytes)", tok.TokenID(), r.Kind, r.Bytes)
				}
			}
		}
		if n := tok.Bus.AuditDropped(); n > 0 {
			l.leaks += int(n)
			if l.leakMsg == "" {
				l.leakMsg = fmt.Sprintf("token %d: audit ring dropped %d records unchecked", tok.TokenID(), n)
			}
		}
	}
}

// timeLayers re-times the first statements of the window through the
// front-end layers' entry points, one call each: sqlparse.Parse,
// query.Resolve (ResolveUpdate/ResolveDelete for writes) and, for
// SELECTs, exec.DB.PlanQuery — the planning a cache miss pays. It
// returns host µs per call.
func (l *layers) timeLayers(stmts []string) (parseUs, resolveUs, planUs float64) {
	if len(stmts) > layerTimingSample {
		stmts = stmts[:layerTimingSample]
	}
	var parse, resolve, plan time.Duration
	var nParse, nResolve, nPlan int
	for _, sql := range stmts {
		t := time.Now()
		parsed, err := sqlparse.Parse(sql)
		parse += time.Since(t)
		nParse++
		if err != nil {
			continue
		}
		t = time.Now()
		switch st := parsed.(type) {
		case *sqlparse.Select:
			q, err := query.Resolve(l.db.Sch, st, sql)
			resolve += time.Since(t)
			nResolve++
			if err != nil {
				continue
			}
			t = time.Now()
			if _, err := l.db.PlanQuery(q, exec.QueryConfig{}); err == nil {
				plan += time.Since(t)
				nPlan++
			}
		case *sqlparse.Update:
			_, _ = query.ResolveUpdate(l.db.Sch, st, sql)
			resolve += time.Since(t)
			nResolve++
		case *sqlparse.Delete:
			_, _ = query.ResolveDelete(l.db.Sch, st, sql)
			resolve += time.Since(t)
			nResolve++
		}
	}
	us := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / 1e3 / float64(n)
	}
	return us(parse, nParse), us(resolve, nResolve), us(plan, nPlan)
}
