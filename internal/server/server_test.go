package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ghostdb"
)

// testDB builds a small two-level database with the result cache on.
func testDB(t testing.TB) *ghostdb.DB {
	t.Helper()
	db, err := ghostdb.Create([]string{
		`CREATE TABLE Orders (id int, customer_id int REFERENCES Customers HIDDEN,
		   quarter char(7), amount float HIDDEN)`,
		`CREATE TABLE Customers (id int, company char(30) HIDDEN, region char(20))`,
	}, ghostdb.Options{FlashBlocks: 4096, MaxConcurrentQueries: 8, ResultCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ld := db.Loader()
	regions := []string{"north", "south", "east", "west"}
	for i := 0; i < 30; i++ {
		if err := ld.Append("Customers", ghostdb.R{"company": fmt.Sprintf("corp-%02d", i), "region": regions[i%4]}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		if err := ld.Append("Orders", ghostdb.R{"customer_id": i % 30, "quarter": fmt.Sprintf("2006-Q%d", i%4+1), "amount": float64(i % 250)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ld.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// startServer serves testDB on a loopback listener.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := New(testDB(t), t.Logf)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return s, ln.Addr().String()
}

type client struct {
	conn net.Conn
	in   *bufio.Scanner
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	in := bufio.NewScanner(conn)
	in.Buffer(make([]byte, 64<<10), maxLine)
	return &client{conn: conn, in: in}
}

// roundtrip sends one command and reads lines through the OK/ERR
// terminator.
func (c *client) roundtrip(t *testing.T, cmd string) []string {
	t.Helper()
	if _, err := fmt.Fprintf(c.conn, "%s\n", cmd); err != nil {
		t.Fatalf("send %q: %v", cmd, err)
	}
	var lines []string
	for c.in.Scan() {
		line := c.in.Text()
		lines = append(lines, line)
		if strings.HasPrefix(line, "OK") || strings.HasPrefix(line, "ERR") {
			return lines
		}
	}
	t.Fatalf("connection closed mid-response to %q (got %q)", cmd, lines)
	return nil
}

const testQ = `QUERY SELECT Orders.id, Customers.company FROM Orders, Customers WHERE Orders.customer_id = Customers.id AND Customers.region = 'north' AND Orders.amount >= 200.0`

func TestProtocolQueryExplainStats(t *testing.T) {
	_, addr := startServer(t)
	c := dial(t, addr)

	if got := c.roundtrip(t, "PING"); !strings.HasPrefix(got[len(got)-1], "OK") {
		t.Fatalf("PING: %v", got)
	}

	lines := c.roundtrip(t, testQ)
	if !strings.HasPrefix(lines[0], "COLS 2\t") {
		t.Fatalf("header: %q", lines[0])
	}
	last := lines[len(lines)-1]
	if !strings.HasPrefix(last, "OK rows=") || !strings.Contains(last, "cache=miss") {
		t.Fatalf("terminator: %q", last)
	}
	nrows := len(lines) - 2
	if nrows == 0 {
		t.Fatal("expected some rows from the test query")
	}
	if !strings.HasPrefix(lines[1], "ROW ") && !strings.HasPrefix(lines[1], "ROW\t") {
		t.Fatalf("row line: %q", lines[1])
	}

	// Same query again: served from the cache, same row count.
	again := c.roundtrip(t, testQ)
	if len(again) != len(lines) {
		t.Fatalf("cached response has %d lines, want %d", len(again), len(lines))
	}
	if last := again[len(again)-1]; !strings.Contains(last, "cache=hit") || !strings.Contains(last, "sim_us=0") {
		t.Fatalf("cached terminator: %q", last)
	}

	ex := c.roundtrip(t, strings.Replace(testQ, "QUERY ", "EXPLAIN ", 1))
	if !strings.HasPrefix(ex[0], "INFO plan:") || ex[len(ex)-1] != "OK" {
		t.Fatalf("EXPLAIN: %v", ex)
	}

	st := c.roundtrip(t, "STATS")
	joined := strings.Join(st, "\n")
	for _, want := range []string{"INFO version=" + ghostdb.Version, "INFO queries=", "INFO cache_hits=1", "INFO cache_entries=1",
		"INFO shards=1", "INFO shard0_sessions=", "INFO shard0_flash_reads="} {
		if !strings.Contains(joined, want) {
			t.Fatalf("STATS missing %q:\n%s", want, joined)
		}
	}

	if got := c.roundtrip(t, "BOGUS x"); !strings.HasPrefix(got[0], "ERR unknown command") {
		t.Fatalf("BOGUS: %v", got)
	}
	// Errors keep the connection usable.
	if got := c.roundtrip(t, "QUERY SELECT nope FROM nowhere"); !strings.HasPrefix(got[0], "ERR ") {
		t.Fatalf("bad SQL: %v", got)
	}
	if got := c.roundtrip(t, "PING"); !strings.HasPrefix(got[len(got)-1], "OK") {
		t.Fatalf("PING after error: %v", got)
	}
}

// TestExecInvalidatesAcrossClients: one client's INSERT must invalidate
// the answer every other client sees.
func TestExecInvalidatesAcrossClients(t *testing.T) {
	_, addr := startServer(t)
	a, b := dial(t, addr), dial(t, addr)

	q := `QUERY SELECT COUNT(*) FROM Customers WHERE region = 'north'`
	first := a.roundtrip(t, q)
	countLine := func(lines []string) string {
		for _, l := range lines {
			if strings.HasPrefix(l, "ROW") {
				return strings.TrimSpace(strings.TrimPrefix(l, "ROW"))
			}
		}
		return ""
	}
	before := countLine(first)

	ins := b.roundtrip(t, `EXEC INSERT INTO Customers (company, region) VALUES ('corp-new', 'north')`)
	if ins[len(ins)-1] != "OK" {
		t.Fatalf("EXEC: %v", ins)
	}

	second := a.roundtrip(t, q)
	if last := second[len(second)-1]; strings.Contains(last, "cache=hit") {
		t.Fatalf("post-insert query served from stale cache: %q", last)
	}
	after := countLine(second)
	if before == after {
		t.Fatalf("count unchanged after insert: %s", after)
	}
}

// TestManyConcurrentClients: N clients hammer the same and different
// queries; every response is well-formed and the engine leaks nothing.
func TestManyConcurrentClients(t *testing.T) {
	s, addr := startServer(t)
	const clients = 8
	var wg sync.WaitGroup
	queries := []string{
		testQ,
		`QUERY SELECT id, region FROM Customers WHERE region = 'south'`,
		`QUERY SELECT COUNT(*) FROM Orders, Customers WHERE Orders.customer_id = Customers.id AND Orders.amount < 50.0 AND Customers.region = 'east'`,
	}
	for g := 0; g < clients; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := dial(t, addr)
			for k := 0; k < 6; k++ {
				lines := c.roundtrip(t, queries[(g+k)%len(queries)])
				if last := lines[len(lines)-1]; !strings.HasPrefix(last, "OK rows=") {
					t.Errorf("client %d: %q", g, last)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := s.db.Internal().RAM.InUse(); got != 0 {
		t.Fatalf("secure RAM still in use after drain: %d", got)
	}
	cs := s.db.CacheStats()
	if cs.Hits+cs.SharedHits == 0 {
		t.Fatal("concurrent identical queries produced no cache sharing at all")
	}
}

// TestGracefulShutdownDrains: Shutdown with a generous deadline lets an
// in-flight command finish and closes idle clients.
func TestGracefulShutdownDrains(t *testing.T) {
	db := testDB(t)
	s := New(db, t.Logf)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()

	idle := dial(t, ln.Addr().String())
	busy := dial(t, ln.Addr().String())
	if got := busy.roundtrip(t, "PING"); !strings.HasPrefix(got[0], "OK") {
		t.Fatal("warmup failed")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve after shutdown: %v", err)
	}
	// The idle connection was closed by the drain.
	idle.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if idle.in.Scan() {
		t.Fatal("idle connection still delivering data after shutdown")
	}
	// New connections are refused.
	if conn, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		conn.Close()
		t.Fatal("listener still accepting after shutdown")
	}
}

func TestHTTPFacade(t *testing.T) {
	s, _ := startServer(t)
	ts := httptest.NewServer(s.HTTPHandler())
	defer ts.Close()

	get := func(path string) string {
		t.Helper()
		res, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	q := "/query?q=" + strings.ReplaceAll("SELECT id, region FROM Customers WHERE region = 'north'", " ", "+")
	body := get(q)
	if !strings.Contains(body, `"columns"`) || !strings.Contains(body, `"cache":"miss"`) {
		t.Fatalf("query body: %s", body)
	}
	if body = get(q); !strings.Contains(body, `"cache":"hit"`) {
		t.Fatalf("second query body: %s", body)
	}
	if body = get("/stats"); !strings.Contains(body, `"cache_hits":1`) {
		t.Fatalf("stats body: %s", body)
	}
	if body = get("/explain?q=SELECT+id+FROM+Customers+WHERE+region+=+'north'"); !strings.Contains(body, `"plan"`) {
		t.Fatalf("explain body: %s", body)
	}
}

// TestHTTPOversizedBodyRefused: a body past MaxRequestBytes is refused
// with 413 before it is parsed, and the facade keeps serving queries.
func TestHTTPOversizedBodyRefused(t *testing.T) {
	s, _ := startServer(t)
	ts := httptest.NewServer(s.HTTPHandler())
	defer ts.Close()

	big := "q=SELECT+id+FROM+Customers+WHERE+region+=+'" + strings.Repeat("x", MaxRequestBytes) + "'"
	res, err := ts.Client().Post(ts.URL+"/query", "application/x-www-form-urlencoded", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", res.StatusCode)
	}

	res, err = ts.Client().Get(ts.URL + "/query?q=" + strings.ReplaceAll("SELECT id FROM Customers WHERE region = 'north'", " ", "+"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK || !strings.Contains(string(body), `"columns"`) {
		t.Fatalf("query after the refused body: status %d, body %s", res.StatusCode, body)
	}
}

// obsDB builds the test database with telemetry instruments armed: a
// 1ns slow threshold (every statement logs) and no result cache, so
// every request does real engine work.
func obsDB(t testing.TB, opts ghostdb.Options) *ghostdb.DB {
	t.Helper()
	opts.FlashBlocks = 4096
	opts.SlowQueryThreshold = time.Nanosecond
	db, err := ghostdb.Create([]string{
		`CREATE TABLE Orders (id int, customer_id int REFERENCES Customers HIDDEN,
		   quarter char(7), amount float HIDDEN)`,
		`CREATE TABLE Customers (id int, company char(30) HIDDEN, region char(20))`,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	ld := db.Loader()
	regions := []string{"north", "south", "east", "west"}
	for i := 0; i < 30; i++ {
		if err := ld.Append("Customers", ghostdb.R{"company": fmt.Sprintf("corp-%02d", i), "region": regions[i%4]}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		if err := ld.Append("Orders", ghostdb.R{"customer_id": i % 30, "quarter": fmt.Sprintf("2006-Q%d", i%4+1), "amount": float64(i % 250)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ld.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestTraceAndSlowlogCoverDML: UPDATE and DELETE through /trace carry
// the write path's span tree, and the slow log tags their entries with
// the statement kind — the same observability SELECTs get.
func TestTraceAndSlowlogCoverDML(t *testing.T) {
	s := New(obsDB(t, ghostdb.Options{MaxConcurrentQueries: 4}), t.Logf)
	s.SetTelemetry(true)
	ts := httptest.NewServer(s.HTTPHandler())
	defer ts.Close()

	get := func(path, q string) (int, string) {
		t.Helper()
		res, err := ts.Client().Get(ts.URL + path + "?q=" + strings.ReplaceAll(q, " ", "+"))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatal(err)
		}
		return res.StatusCode, string(body)
	}

	code, body := get("/trace", `UPDATE Orders SET amount = 999.0 WHERE Orders.quarter = '2006-Q1'`)
	if code != 200 {
		t.Fatalf("trace UPDATE: status %d, body %s", code, body)
	}
	for _, want := range []string{`"admission"`, `"exec"`, `"DML"`, `"queue_wait_us"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("trace UPDATE body missing %s:\n%s", want, body)
		}
	}
	if code, body = get("/trace", `DELETE FROM Orders WHERE Orders.id >= 1000000`); code != 200 {
		t.Fatalf("trace DELETE: status %d, body %s", code, body)
	}
	if !strings.Contains(body, `"DML"`) {
		t.Fatalf("trace DELETE body missing DML span:\n%s", body)
	}

	code, body = get("/slowlog", "")
	if code != 200 {
		t.Fatalf("slowlog: status %d", code)
	}
	for _, want := range []string{`"kind":"UPDATE"`, `"kind":"DELETE"`, `"queue_wait_us"`, `"grant_buffers"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("slowlog missing %s:\n%s", want, body)
		}
	}
}

// TestHTTPOverloadSheds429: with a 1ns queue-wait bound and one
// admission slot, concurrent clients force the shedder to reject
// statements; the HTTP facade must answer those with 429 (not 400),
// keep serving afterwards, and surface the sheds in /slo and /metrics.
func TestHTTPOverloadSheds429(t *testing.T) {
	s := New(obsDB(t, ghostdb.Options{
		MaxConcurrentQueries: 1,
		MaxQueueWait:         time.Nanosecond,
		PaceSimulation:       1,
	}), t.Logf)
	s.SetTelemetry(true)
	ts := httptest.NewServer(s.HTTPHandler())
	defer ts.Close()

	q := ts.URL + "/query?q=" + strings.ReplaceAll(
		"SELECT Orders.id FROM Orders, Customers WHERE Orders.customer_id = Customers.id AND Customers.company < 'corp-20'", " ", "+")
	var shed, served atomic.Int64
	for round := 0; round < 10 && shed.Load() == 0; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := ts.Client().Get(q)
				if err != nil {
					t.Errorf("GET: %v", err)
					return
				}
				defer res.Body.Close()
				body, _ := io.ReadAll(res.Body)
				switch res.StatusCode {
				case 200:
					served.Add(1)
				case 429:
					if !strings.Contains(string(body), "overloaded") {
						t.Errorf("429 body: %s", body)
					}
					shed.Add(1)
				default:
					t.Errorf("status %d, body %s", res.StatusCode, body)
				}
			}()
		}
		wg.Wait()
	}
	if shed.Load() == 0 {
		t.Fatal("8 concurrent clients x 10 rounds against one paced slot never shed")
	}
	if served.Load() == 0 {
		t.Fatal("overload shed everything; admitted traffic expected too")
	}

	// The server still serves, and the sheds are visible downstream.
	res, err := ts.Client().Get(ts.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(body), `"shed_total"`) {
		t.Fatalf("/slo body missing shed_total: %s", body)
	}
	var slo ghostdb.SLOSnapshot
	if err := json.Unmarshal(body, &slo); err != nil {
		t.Fatalf("/slo decode: %v", err)
	}
	if slo.ShedTotal != uint64(shed.Load()) {
		t.Fatalf("/slo shed_total = %d, clients saw %d rejections", slo.ShedTotal, shed.Load())
	}
	res, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(body), "ghostdb_shed_total") {
		t.Fatal("/metrics missing ghostdb_shed_total")
	}
}
