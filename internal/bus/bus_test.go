package bus

import (
	"sync"
	"testing"
)

func TestCountersAndAudit(t *testing.T) {
	c := NewChannel(1.5)
	if err := c.Transfer(Up, "query", 120, "SELECT ..."); err != nil {
		t.Fatal(err)
	}
	if err := c.Transfer(Down, "vis-ids", 4000, ""); err != nil {
		t.Fatal(err)
	}
	down, up := c.Counters()
	if down != 4000 || up != 120 {
		t.Fatalf("counters = %d/%d", down, up)
	}
	ups := c.UplinkRecords()
	if len(ups) != 1 || ups[0].Kind != "query" || ups[0].Payload != "SELECT ..." {
		t.Fatalf("uplink audit = %+v", ups)
	}
	if len(c.Records()) != 2 {
		t.Fatalf("records = %d", len(c.Records()))
	}
	c.ResetCounters()
	down, up = c.Counters()
	if down != 0 || up != 0 || len(c.Records()) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestDownPayloadNotRetained(t *testing.T) {
	c := NewChannel(0) // 0 -> default throughput
	if c.ThroughputMBps() != DefaultThroughputMBps {
		t.Fatalf("default throughput = %v", c.ThroughputMBps())
	}
	_ = c.Transfer(Down, "vis-values", 10, "should-be-dropped")
	if c.Records()[0].Payload != "" {
		t.Fatal("down payload retained")
	}
}

func TestNegativeTransferRejected(t *testing.T) {
	c := NewChannel(1)
	if err := c.Transfer(Down, "x", -1, ""); err == nil {
		t.Fatal("negative transfer accepted")
	}
	if err := c.TransferBatch(Down, []Req{{Kind: "x", Bytes: -1}}); err == nil {
		t.Fatal("negative batched transfer accepted")
	}
}

func TestTransferBatchCoalesces(t *testing.T) {
	c := NewChannel(1.5)
	err := c.TransferBatch(Down, []Req{
		{Kind: "vis:A", Bytes: 1000},
		{Kind: "vis:B", Bytes: 500},
		{Kind: "vis-hdr:C", Bytes: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	down, up := c.Counters()
	if down != 1516 || up != 0 {
		t.Fatalf("counters = %d/%d", down, up)
	}
	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("batch should produce one audit record, got %d", len(recs))
	}
	if recs[0].Kind != "vis:A+vis:B+vis-hdr:C" || recs[0].Bytes != 1516 {
		t.Fatalf("batch record = %+v", recs[0])
	}
	if c.Coalesced() != 2 {
		t.Fatalf("coalesced = %d", c.Coalesced())
	}
	if err := c.TransferBatch(Up, nil); err != nil || c.Coalesced() != 2 {
		t.Fatal("empty batch must be a free no-op")
	}
}

func TestTransferBatchUpKeepsPayloads(t *testing.T) {
	c := NewChannel(1.5)
	_ = c.TransferBatch(Up, []Req{
		{Kind: "query", Bytes: 8, Payload: "SELECT 1"},
		{Kind: "query", Bytes: 8, Payload: "SELECT 2"},
	})
	ups := c.UplinkRecords()
	if len(ups) != 1 || ups[0].Payload != "SELECT 1SELECT 2" || ups[0].Bytes != 16 {
		t.Fatalf("uplink batch audit = %+v", ups)
	}
}

func TestAuditRing(t *testing.T) {
	c := NewChannel(1.5)
	c.SetAuditLimit(3)
	for i := 0; i < 5; i++ {
		_ = c.Transfer(Down, string(rune('a'+i)), i, "")
	}
	recs := c.Records()
	if len(recs) != 3 {
		t.Fatalf("ring should hold 3 records, got %d", len(recs))
	}
	// Oldest-first unrolling: records a and b were dropped.
	if recs[0].Kind != "c" || recs[1].Kind != "d" || recs[2].Kind != "e" {
		t.Fatalf("ring order = %v %v %v", recs[0].Kind, recs[1].Kind, recs[2].Kind)
	}
	if c.AuditDropped() != 2 {
		t.Fatalf("dropped = %d", c.AuditDropped())
	}
	down, _ := c.Counters()
	if down != 0+1+2+3+4 {
		t.Fatalf("byte counters must not be affected by the ring, got %d", down)
	}
	c.ResetCounters()
	if c.AuditDropped() != 0 || len(c.Records()) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestAuditOptOut(t *testing.T) {
	c := NewChannel(1.5)
	c.SetAuditLimit(-1)
	_ = c.Transfer(Up, "query", 10, "SELECT 1")
	_ = c.TransferBatch(Down, []Req{{Kind: "vis:A", Bytes: 100}})
	if len(c.Records()) != 0 {
		t.Fatal("opt-out must record nothing")
	}
	down, up := c.Counters()
	if down != 100 || up != 10 {
		t.Fatalf("counters must keep working, got %d/%d", down, up)
	}
	c.SetAuditLimit(0)
	_ = c.Transfer(Up, "query", 10, "SELECT 1")
	if len(c.Records()) != 1 {
		t.Fatal("limit 0 must restore the full trail")
	}
}

// Counters reads without the channel lock, so it may run while other
// goroutines transfer; each direction's count only ever grows and ends
// at the exact total. This test exists to run under -race.
func TestCountersConcurrentWithTransfers(t *testing.T) {
	c := NewChannel(1.5)
	c.SetAuditLimit(16)
	const rounds = 500
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := c.Transfer(Down, "vis-ids", 3, ""); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if err := c.TransferBatch(Up, []Req{{Kind: "q", Bytes: 1, Payload: "a"}, {Kind: "q", Bytes: 1, Payload: "b"}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		var lastDown, lastUp uint64
		for i := 0; i < 4*rounds; i++ {
			down, up := c.Counters()
			if down < lastDown || up < lastUp || down%3 != 0 || up%2 != 0 {
				t.Errorf("counters went %d/%d -> %d/%d", lastDown, lastUp, down, up)
				return
			}
			lastDown, lastUp = down, up
		}
	}()
	wg.Wait()
	if down, up := c.Counters(); down != 3*rounds || up != 2*rounds {
		t.Fatalf("counters = %d/%d, want %d/%d", down, up, 3*rounds, 2*rounds)
	}
}
