// Command ghostdb-server serves one GhostDB instance — one or more
// simulated secure tokens — to many clients over a TCP line protocol
// (and, optionally, HTTP/JSON). It is the deployment shape the paper
// implies, scaled: the secure USB keys sit in one machine, the machine
// serves a crowd, and the only information any observer learns is the
// query stream. With -shards > 1 the demo schema's independent trees
// are placed across several tokens (STATS reports per-shard totals).
//
// The untrusted-side result cache (enabled by default) answers repeated
// queries without touching the token at all: cache hits perform zero
// flash I/O and move zero bytes on the bus, and every INSERT invalidates
// the cache so no client can read a stale answer.
//
// Usage:
//
//	ghostdb-server                          # medical demo on :7333
//	ghostdb-server -listen :9000 -http :9001
//	ghostdb-server -scale 0.05 -cache 33554432 -sessions 16
//	printf 'QUERY SELECT ...\nQUIT\n' | nc localhost 7333
//
// Protocol (see internal/server): QUERY, EXEC, EXPLAIN, STATS, PING,
// QUIT — one command per line, responses terminated by OK/ERR.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ghostdb"
	"ghostdb/internal/server"
)

func main() {
	listen := flag.String("listen", ":7333", "TCP line-protocol listen address")
	httpAddr := flag.String("http", "", "optional HTTP/JSON listen address (e.g. :7334)")
	scale := flag.Float64("scale", 0.01, "demo dataset scale factor (paper's medical DB = 1.0)")
	seed := flag.Int64("seed", 1, "demo dataset seed")
	cacheBytes := flag.Int("cache", 8<<20, "result cache bound in bytes (0 disables caching)")
	pageCacheBytes := flag.Int("page-cache", 4<<20, "untrusted page cache bound in bytes (0 disables it)")
	busAudit := flag.Int("bus-audit", -1, "per-token bus audit trail: -1 off (default for servers), 0 full, n>0 ring of n records")
	sessions := flag.Int("sessions", 8, "max concurrently admitted query sessions")
	ramBytes := flag.Int("ram", 0, "secure RAM budget in bytes (default 65536, the paper's Table 1)")
	shards := flag.Int("shards", 1, "simulated secure tokens to place the demo's trees across")
	metricsOn := flag.Bool("metrics", true, "expose telemetry over HTTP (/metrics, /trace, /slowlog); collection is always on")
	slowMs := flag.Int("slowlog-ms", 250, "slow-query log threshold in simulated milliseconds (0 disables the log)")
	maxQueueWaitMs := flag.Int("max-queue-wait-ms", 0, "shed statements whose predicted admission-queue wait exceeds this many wall milliseconds (0 disables shedding)")
	flag.Parse()

	db, err := buildDemo(*scale, *seed, *cacheBytes, *pageCacheBytes, *busAudit, *sessions, *ramBytes, *shards,
		time.Duration(*slowMs)*time.Millisecond,
		time.Duration(*maxQueueWaitMs)*time.Millisecond)
	if err != nil {
		log.Fatalf("ghostdb-server: %v", err)
	}

	srv := server.New(db, log.Printf)
	srv.SetTelemetry(*metricsOn)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("ghostdb-server: %v", err)
	}
	log.Printf("GhostDB %s serving medical demo (scale %g) on %s — %d secure token(s), %d sessions, %dB result cache",
		ghostdb.Version, *scale, ln.Addr(), db.Shards(), *sessions, *cacheBytes)
	log.Printf(`try: printf 'QUERY SELECT COUNT(*) FROM Patients WHERE zipcode < '\''0000000100'\''\nSTATS\nQUIT\n' | nc %s`, hostPort(ln.Addr().String()))

	var httpSrv *http.Server
	if *httpAddr != "" {
		httpSrv = &http.Server{Addr: *httpAddr, Handler: srv.HTTPHandler(),
			ReadHeaderTimeout: server.ReadHeaderTimeout}
		go func() {
			log.Printf("HTTP/JSON facade on %s (/query /exec /explain /stats /healthz /metrics /trace /slowlog)", *httpAddr)
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("http: %v", err)
			}
		}()
	}

	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("%v: draining (in-flight queries finish, then exit)", s)
	case err := <-serveDone:
		if err != nil {
			log.Fatalf("ghostdb-server: %v", err)
		}
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Drain the engine first: while in-flight commands finish, /healthz
	// keeps answering 503 "draining" so load balancers stop routing here
	// before the HTTP listener goes away.
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("forced shutdown: %v", err)
	}
	if httpSrv != nil {
		httpSrv.Shutdown(ctx)
	}
	tot := db.Totals()
	cs := db.CacheStats()
	log.Printf("served %d queries (%d cache hits, %d shared, %d entries cached); token: %d flash reads, %d B up / %d B down",
		tot.Queries, tot.CacheHits, tot.CacheShared, cs.Entries, tot.Flash.PageReads, tot.BusUp, tot.BusDown)
}

// hostPort renders an address for the "try:" hint, mapping wildcard
// hosts to localhost.
func hostPort(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "localhost"
	}
	return net.JoinHostPort(host, port)
}

// buildDemo constructs the medical-style demo database through the
// public API: Doctors (hidden name), Patients (hidden diagnosis, visible
// zipcode) and Measurements (hidden value), with the paper's §6.2
// cardinality ratios scaled by sf — plus an independent AuditLog tree,
// so multi-shard servers have a second tree to place on its own token.
// Values are zero-padded decimals over a domain of 1000 so range
// predicates can target any selectivity, the same convention as
// internal/datagen.
func buildDemo(sf float64, seed int64, cacheBytes, pageCacheBytes, busAudit, sessions, ramBytes, shards int, slowThreshold, maxQueueWait time.Duration) (*ghostdb.DB, error) {
	if sf <= 0 {
		sf = 0.01
	}
	db, err := ghostdb.Create([]string{
		`CREATE TABLE Doctors (id int, name char(10) HIDDEN, specialty char(10))`,
		`CREATE TABLE Patients (id int, doctor_id int REFERENCES Doctors HIDDEN,
		   zipcode char(10), diagnosis char(10) HIDDEN)`,
		`CREATE TABLE Measurements (id int, patient_id int REFERENCES Patients HIDDEN,
		   week char(10), value float HIDDEN)`,
		`CREATE TABLE AuditLog (id int, day char(10), event char(10) HIDDEN)`,
	}, ghostdb.Options{
		RAMBytes:             ramBytes,
		FlashBlocks:          1 << 14,
		MaxConcurrentQueries: sessions,
		ResultCacheBytes:     cacheBytes,
		PageCacheBytes:       pageCacheBytes,
		BusAuditEntries:      busAudit,
		Shards:               shards,
		SlowQueryThreshold:   slowThreshold,
		MaxQueueWait:         maxQueueWait,
	})
	if err != nil {
		return nil, err
	}

	scaled := func(full int, floor int) int {
		n := int(float64(full) * sf)
		if n < floor {
			n = floor
		}
		return n
	}
	nDoc := scaled(4500, 15)
	nPat := scaled(14000, 45)
	nMeas := scaled(1_300_000, 400)

	rng := rand.New(rand.NewSource(seed))
	pad := func(v int) string { return fmt.Sprintf("%010d", v) }
	ld := db.Loader()
	for i := 0; i < nDoc; i++ {
		if err := ld.Append("Doctors", ghostdb.R{
			"name":      pad(rng.Intn(1000)),
			"specialty": pad(rng.Intn(1000)),
		}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nPat; i++ {
		if err := ld.Append("Patients", ghostdb.R{
			"doctor_id": rng.Intn(nDoc),
			"zipcode":   pad(rng.Intn(1000)),
			"diagnosis": pad(rng.Intn(1000)),
		}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < nMeas; i++ {
		if err := ld.Append("Measurements", ghostdb.R{
			"patient_id": rng.Intn(nPat),
			"week":       pad(rng.Intn(1000)),
			"value":      float64(rng.Intn(1000)),
		}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < scaled(40_000, 60); i++ {
		if err := ld.Append("AuditLog", ghostdb.R{
			"day":   pad(rng.Intn(1000)),
			"event": pad(rng.Intn(1000)),
		}); err != nil {
			return nil, err
		}
	}
	if err := ld.Commit(); err != nil {
		return nil, err
	}
	return db, nil
}
