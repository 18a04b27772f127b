package pagecache

import (
	"fmt"
	"sync"
	"testing"

	"ghostdb/internal/cache"
)

// The page cache is a cache.Cache filled the way the untrusted engine
// fills it: Get on the canonical predicate key, and on a miss Stamp the
// owning shard before the scan and Put the encoded run under that stamp.
// These tests pin that fill path; internal/cache tests the Do path the
// result cache uses.

func TestLRUHitMissEvict(t *testing.T) {
	c := cache.New(100)
	st := c.Stamp(nil)
	if !c.Put("a", "A", 40, nil, st) || !c.Put("b", "B", 40, nil, st) {
		t.Fatal("puts should store")
	}
	if v, ok := c.Get("a"); !ok || v != "A" {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// "b" is now least recently used; inserting 40 more bytes evicts it.
	if !c.Put("c", "C", 40, nil, st) {
		t.Fatal("Put(c) should store")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	var s Stats = c.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.Bytes != 80 || s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestShardInvalidation(t *testing.T) {
	c := cache.New(1000)
	st0 := c.Stamp([]int{0})
	st1 := c.Stamp([]int{1})
	c.Put("q0", "v0", 10, []int{0}, st0)
	c.Put("q1", "v1", 10, []int{1}, st1)
	c.BumpShard(0)
	if _, ok := c.Get("q0"); ok {
		t.Fatal("shard-0 frame should be swept by BumpShard(0)")
	}
	if _, ok := c.Get("q1"); !ok {
		t.Fatal("shard-1 frame should survive BumpShard(0)")
	}
	// A stamp taken before the bump can no longer store.
	if c.Put("q0", "stale", 10, []int{0}, st0) {
		t.Fatal("stale stamp must not store")
	}
	// The untouched shard's stamp is still current.
	if !c.Put("q1b", "v1b", 10, []int{1}, st1) {
		t.Fatal("a stamp on an unbumped shard should still store")
	}
	if s := c.Stats(); s.Invalidations != 1 || s.Entries != 2 || s.Bytes != 20 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestZeroCapacityNeverStores(t *testing.T) {
	c := cache.New(0)
	if c.Put("k", "v", 1, nil, c.Stamp(nil)) {
		t.Fatal("zero-capacity pool must not store")
	}
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 || s.Stores != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestConcurrentHitEvictInvalidate hammers one pool from 16 goroutines
// mixing hits, stores, evictions and shard bumps; run under -race it
// checks the locking discipline, and the final byte accounting must
// still be internally consistent.
func TestConcurrentHitEvictInvalidate(t *testing.T) {
	c := cache.New(1 << 12)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%64)
				shard := g % 4
				switch i % 5 {
				case 0:
					st := c.Stamp([]int{shard})
					c.Put(key, i, 128, []int{shard}, st)
				case 1, 2:
					c.Get(key)
				case 3:
					if i%40 == 3 {
						c.BumpShard(shard)
					}
				default:
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Bytes < 0 || s.Bytes > s.CapacityBytes {
		t.Fatalf("bytes %d out of [0, %d]", s.Bytes, s.CapacityBytes)
	}
	if int64(s.Entries)*128 != s.Bytes {
		t.Fatalf("%d entries × 128 ≠ %d bytes", s.Entries, s.Bytes)
	}
}
