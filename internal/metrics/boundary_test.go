package metrics

import (
	"math/rand"
	"testing"

	"ghostdb/internal/bus"
	"ghostdb/internal/flash"
)

// refCollector attributes activity by per-frame start and child samples:
// a span's own activity is its total since begin minus its children's
// totals. It is the reference boundary charging must reproduce.
type refCollector struct {
	dev   *flash.Device
	ch    *bus.Channel
	spans map[string]Sample
	stack []refFrame
}

type refFrame struct {
	name  string
	start Sample
	child Sample
}

func (c *refCollector) now() Sample {
	s := Sample{Flash: c.dev.Counters()}
	s.BusDown, s.BusUp = c.ch.Counters()
	return s
}

func (c *refCollector) begin(name string) {
	c.stack = append(c.stack, refFrame{name: name, start: c.now()})
}

func (c *refCollector) end(name string) {
	n := len(c.stack)
	fr := c.stack[n-1]
	c.stack = c.stack[:n-1]
	total := c.now().Sub(fr.start)
	c.spans[name] = c.spans[name].Add(total.Sub(fr.child))
	if n > 1 {
		c.stack[n-2].child = c.stack[n-2].child.Add(total)
	}
}

// activity performs one random piece of flash or bus work.
func activity(t *testing.T, rng *rand.Rand, dev *flash.Device, ch *bus.Channel, pages []flash.PageID) {
	t.Helper()
	buf := make([]byte, dev.PageSize())
	var err error
	switch rng.Intn(5) {
	case 0:
		err = dev.Write(pages[rng.Intn(len(pages))], buf[:1+rng.Intn(len(buf))])
	case 1:
		err = dev.Read(pages[rng.Intn(len(pages))], buf, 1+rng.Intn(len(buf)))
	case 2:
		err = ch.Transfer(bus.Down, "vis-ids", rng.Intn(4096), "")
	case 3:
		err = ch.Transfer(bus.Up, "query", 1+rng.Intn(64), "q")
	case 4:
		err = ch.TransferBatch(bus.Down, []bus.Req{{Kind: "a", Bytes: rng.Intn(512)}, {Kind: "b", Bytes: rng.Intn(512)}})
	}
	if err != nil {
		t.Fatal(err)
	}
}

// Random nested-span scripts over a real device and channel attribute
// exactly what the start/child reference attributes, span by span.
func TestBoundaryChargingMatchesStartChild(t *testing.T) {
	names := []string{"Vis", "CI", "Merge", "SJoin", "BF", "Store"}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dev, ch, col := testRig(t)
		pages := make([]flash.PageID, 4)
		for i := range pages {
			pages[i], _ = dev.Alloc()
			if err := dev.Write(pages[i], []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		col.Reset()
		ref := &refCollector{dev: dev, ch: ch, spans: map[string]Sample{}}
		var open []string
		for step := 0; step < 120 || len(open) > 0; step++ {
			switch op := rng.Intn(3); {
			case op == 0 && step < 120 && len(open) < 4:
				name := names[rng.Intn(len(names))]
				open = append(open, name)
				ref.begin(name)
				col.begin(name)
			case op == 1 && len(open) > 0:
				name := open[len(open)-1]
				open = open[:len(open)-1]
				ref.end(name)
				col.end(name)
			default:
				activity(t, rng, dev, ch, pages)
			}
		}
		if len(col.Names()) != len(ref.spans) {
			t.Fatalf("seed %d: names %v, reference has %d", seed, col.Names(), len(ref.spans))
		}
		for name, want := range ref.spans {
			if got := col.SampleOf(name); got != want {
				t.Fatalf("seed %d: span %s = %+v, want %+v", seed, name, got, want)
			}
		}
	}
}

// Activity while no span is open — before the first, between two and
// after the last — is charged to no span.
func TestActivityOutsideSpansIsUnattributed(t *testing.T) {
	dev, ch, col := testRig(t)
	pg, _ := dev.Alloc()
	buf := make([]byte, 2048)
	mustNil := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustNil(dev.Write(pg, buf))
	mustNil(ch.Transfer(bus.Down, "before", 100, ""))
	mustNil(col.Span("a", func() error { return dev.ReadFull(pg, buf) }))
	mustNil(dev.Write(pg, buf))
	mustNil(ch.Transfer(bus.Up, "between", 10, "x"))
	mustNil(col.Span("b", func() error { return ch.Transfer(bus.Down, "in", 7, "") }))
	mustNil(dev.Write(pg, buf))
	if got := col.SampleOf("a"); got != (Sample{Flash: flash.Counters{PageReads: 1, BytesToRAM: 2048}}) {
		t.Fatalf("a = %+v, want one full page read", got)
	}
	if got := col.SampleOf("b"); got != (Sample{BusDown: 7}) {
		t.Fatalf("b = %+v, want 7 bytes down", got)
	}
}

// After Reset zeroes the counters, the next span is charged only its
// own activity: no delta reaches back to the mark taken before Reset.
func TestResetClearsBoundaryMark(t *testing.T) {
	dev, ch, col := testRig(t)
	pg, _ := dev.Alloc()
	buf := make([]byte, 2048)
	if err := col.Span("w", func() error { return dev.Write(pg, buf) }); err != nil {
		t.Fatal(err)
	}
	if err := ch.Transfer(bus.Down, "outside", 500, ""); err != nil {
		t.Fatal(err)
	}
	col.Reset()
	if n := col.Names(); len(n) != 0 {
		t.Fatalf("names after Reset = %v", n)
	}
	if err := col.Span("r", func() error { return dev.Read(pg, buf, 16) }); err != nil {
		t.Fatal(err)
	}
	if got := col.SampleOf("r"); got != (Sample{Flash: flash.Counters{PageReads: 1, BytesToRAM: 16}}) {
		t.Fatalf("r = %+v, want one 16-byte read", got)
	}
	if got := col.SampleOf("w"); got != (Sample{}) {
		t.Fatalf("w after Reset = %+v, want zero", got)
	}
}

// Ending a span that is not the innermost open one, or ending with none
// open, is a bug in the caller and panics.
func TestUnbalancedEndPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		open  []string
		close string
	}{
		{name: "none open", close: "x"},
		{name: "not innermost", open: []string{"outer", "inner"}, close: "outer"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, col := testRig(t)
			for _, n := range tc.open {
				col.begin(n)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			col.end(tc.close)
		})
	}
}

// BenchmarkCollectorSpan measures the boundary cost of one parent span
// holding three sibling spans, the per-tuple pattern of the Merge/SJoin
// loop, over a device and channel that see some work in each span.
func BenchmarkCollectorSpan(b *testing.B) {
	dev := flash.MustDevice(flash.Params{PageSize: 2048, PagesPerBlock: 4, Blocks: 16, ReserveBlocks: 2})
	ch := bus.NewChannel(1.5)
	ch.SetAuditLimit(-1)
	col := NewCollector(dev, ch, DefaultModel())
	pg, _ := dev.Alloc()
	buf := make([]byte, 64)
	if err := dev.Write(pg, buf); err != nil {
		b.Fatal(err)
	}
	children := []string{"SJoin", "BF", "Store"}
	work := func() error { return dev.Read(pg, buf, len(buf)) }
	b.ReportAllocs()
	for b.Loop() {
		err := col.Span("Merge", func() error {
			for _, name := range children {
				if err := col.Span(name, work); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if got := col.SampleOf("Store").Flash.PageReads; got == 0 {
		b.Fatalf("Store charged %d reads", got)
	}
}
