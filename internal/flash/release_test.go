package flash

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// liveBuffers counts the blocks holding a host buffer and the blocks
// holding at least one valid page.
func liveBuffers(d *Device) (buffers, valid int) {
	for b := range d.data {
		if d.data[b] != nil {
			buffers++
		}
		if d.blockValid[b] > 0 {
			valid++
		}
	}
	return buffers, valid
}

// A device that churns through many times its live data — writing,
// rewriting and freeing pages — must keep every live page's bytes and
// hold host buffers only for blocks with a valid page plus the block the
// write frontier is filling. Once with a small device, where GC runs
// and must relocate live pages out of the block it erases, and once with
// one large enough that the frontier never wraps, the case of a
// generously sized token whose GC never runs.
func TestChurnReleasesDeadBlocks(t *testing.T) {
	for _, tc := range []struct {
		name   string
		blocks int
		live   int
		writes int
		gc     bool
	}{
		{name: "gc", blocks: 16, live: 24, writes: 4000, gc: true},
		{name: "no-gc", blocks: 1024, live: 24, writes: 3000, gc: false},
	} {
		for seed := int64(1); seed <= 10; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				churn(t, tc.blocks, tc.live, tc.writes, tc.gc, seed)
			})
		}
	}
}

// churn runs one seeded write/rewrite/free script on a fresh device with
// 4-page blocks, checking after every step.
func churn(t *testing.T, blocks, live, writes int, gc bool, seed int64) {
	p := Params{PageSize: 64, PagesPerBlock: 4, Blocks: blocks, ReserveBlocks: 2}
	d := MustDevice(p)
	rng := rand.New(rand.NewSource(seed))
	want := map[PageID][]byte{}
	var ids []PageID
	buf := make([]byte, p.PageSize)
	for w := 0; w < writes; w++ {
		switch op := rng.Intn(4); {
		case op == 0 && len(ids) > 0:
			i := rng.Intn(len(ids))
			if err := d.Free(ids[i]); err != nil {
				t.Fatalf("write %d: Free: %v", w, err)
			}
			delete(want, ids[i])
			ids[i] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		case op == 1 && len(ids) > 0:
			id := ids[rng.Intn(len(ids))]
			page := make([]byte, 1+rng.Intn(p.PageSize))
			rng.Read(page)
			if err := d.Write(id, page); err != nil {
				t.Fatalf("write %d: rewrite: %v", w, err)
			}
			want[id] = page
		default:
			if len(ids) >= live {
				continue
			}
			id, err := d.Alloc()
			if err != nil {
				t.Fatalf("write %d: Alloc: %v", w, err)
			}
			page := make([]byte, 1+rng.Intn(p.PageSize))
			rng.Read(page)
			if err := d.Write(id, page); err != nil {
				t.Fatalf("write %d: Write: %v", w, err)
			}
			ids = append(ids, id)
			want[id] = page
		}
		if buffers, valid := liveBuffers(d); buffers > valid+1 {
			t.Fatalf("write %d: %d block buffers held, want at most %d (blocks with a valid page) + 1 (frontier)",
				w, buffers, valid)
		}
		for id, page := range want {
			if err := d.ReadFull(id, buf); err != nil {
				t.Fatalf("write %d: read page %d: %v", w, id, err)
			}
			if !bytes.Equal(buf[:len(page)], page) || !bytes.Equal(buf[len(page):], make([]byte, p.PageSize-len(page))) {
				t.Fatalf("write %d: page %d holds the wrong bytes", w, id)
			}
		}
	}
	c := d.Counters()
	if ran := c.BlockErases > 0; ran != gc {
		t.Fatalf("GC ran = %v (%d erases), want %v", ran, c.BlockErases, gc)
	}
	if c.PageWrites < uint64(4*live) {
		t.Fatalf("only %d page writes: the churn is too light to test release", c.PageWrites)
	}
}

// BenchmarkDeviceWriteFree measures one temp page's life — alloc, a full
// page write, free — the pattern of the executor's temp and spool runs.
// The frontier wraps every 4096 ops, after which GC erases dead blocks.
func BenchmarkDeviceWriteFree(b *testing.B) {
	d := MustDevice(Params{PageSize: DefaultPageSize, PagesPerBlock: DefaultPagesPerBlock, Blocks: 64, ReserveBlocks: 2})
	page := make([]byte, DefaultPageSize)
	b.ReportAllocs()
	for b.Loop() {
		id, err := d.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Write(id, page); err != nil {
			b.Fatal(err)
		}
		if err := d.Free(id); err != nil {
			b.Fatal(err)
		}
	}
}
