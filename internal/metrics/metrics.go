// Package metrics turns the raw I/O counters of the flash simulator and
// the USB channel into simulated execution time, following the cost model
// of Table 1 in the paper: 25µs to load a page from flash into the data
// register, 200µs to program a page, 50ns per byte transferred between the
// data register and RAM, plus communication time at the configured link
// throughput. It also provides named cost spans so experiments can break a
// query's cost down per operator (Figures 15 and 16).
package metrics

import (
	"fmt"
	"sort"
	"time"

	"ghostdb/internal/bus"
	"ghostdb/internal/flash"
)

// Model holds the cost parameters.
type Model struct {
	ReadPage   time.Duration // flash -> data register latency per page
	WritePage  time.Duration // data register -> flash program time per page
	EraseBlock time.Duration // block erase time (0 in the paper's model)
	PerByte    time.Duration // data register -> RAM per byte
}

// DefaultModel returns the Table 1 parameters.
func DefaultModel() Model {
	return Model{
		ReadPage:  25 * time.Microsecond,
		WritePage: 200 * time.Microsecond,
		PerByte:   50 * time.Nanosecond,
	}
}

// Sample is a combined snapshot of flash and bus activity.
type Sample struct {
	Flash   flash.Counters
	BusDown uint64
	BusUp   uint64
}

// Sub returns s - o component-wise.
func (s Sample) Sub(o Sample) Sample {
	return Sample{
		Flash:   s.Flash.Sub(o.Flash),
		BusDown: s.BusDown - o.BusDown,
		BusUp:   s.BusUp - o.BusUp,
	}
}

// Add returns s + o component-wise.
func (s Sample) Add(o Sample) Sample {
	return Sample{
		Flash:   s.Flash.Add(o.Flash),
		BusDown: s.BusDown + o.BusDown,
		BusUp:   s.BusUp + o.BusUp,
	}
}

// IOTime converts the flash component of a sample to simulated time.
func (m Model) IOTime(s Sample) time.Duration {
	t := time.Duration(s.Flash.PageReads)*m.ReadPage +
		time.Duration(s.Flash.PageWrites)*m.WritePage +
		time.Duration(s.Flash.BlockErases)*m.EraseBlock +
		time.Duration(s.Flash.BytesToRAM)*m.PerByte
	return t
}

// CommTime converts the bus component of a sample to simulated time at the
// given link throughput (MB/s).
func (m Model) CommTime(s Sample, throughputMBps float64) time.Duration {
	if throughputMBps <= 0 {
		return 0
	}
	bytes := float64(s.BusDown + s.BusUp)
	secs := bytes / (throughputMBps * 1e6)
	return time.Duration(secs * float64(time.Second))
}

// Time is IOTime + CommTime.
func (m Model) Time(s Sample, throughputMBps float64) time.Duration {
	return m.IOTime(s) + m.CommTime(s, throughputMBps)
}

// Collector attributes I/O activity to named spans. Spans may nest;
// activity is attributed to the innermost open span, and enclosing spans
// see only their own direct activity (so the per-operator decomposition of
// Figure 15 sums to the total).
//
// Attribution works by boundary charging: every span boundary (a begin
// or an end) takes one snapshot of the flash and bus counters and charges
// the delta since the previous boundary to the span that was innermost in
// between. Activity while no span is open is never charged, so it stays
// unattributed (the trace layer reports it as "other").
//
// A Collector is single-writer: Span/Reset must not be called
// concurrently, and Reset requires that no span is open. Once collection
// quiesces, the snapshot accessors (SampleOf, Names, Breakdown, TimeOf,
// CommTimeOf, FormatBreakdown) are read-only and safe to call from any
// number of goroutines.
type Collector struct {
	dev   *flash.Device
	ch    *bus.Channel
	model Model
	// mbps is the link speed snapshotted at construction, so a
	// collector's communication timings are computed against one
	// consistent speed even if the knob changes mid-collection.
	mbps float64

	names   []string // span names in first-seen order
	samples []Sample // parallel to names: each span's own activity
	stack   []int    // open spans as indices into names, innermost last
	mark    Sample   // counters at the previous boundary
}

// NewCollector creates a collector over the given device and channel.
func NewCollector(dev *flash.Device, ch *bus.Channel, model Model) *Collector {
	return &Collector{dev: dev, ch: ch, model: model, mbps: ch.ThroughputMBps()}
}

// Model returns the collector's cost model.
func (c *Collector) Model() Model { return c.model }

// ThroughputMBps returns the link speed snapshotted at construction —
// the single source of truth for this collection's communication
// timings.
func (c *Collector) ThroughputMBps() float64 { return c.mbps }

func (c *Collector) now() Sample {
	s := Sample{Flash: c.dev.Counters()}
	s.BusDown, s.BusUp = c.ch.Counters()
	return s
}

// Reset clears all recorded spans and the underlying counters.
func (c *Collector) Reset() {
	if len(c.stack) != 0 {
		panic("metrics: reset with open spans")
	}
	c.names = c.names[:0]
	c.samples = c.samples[:0]
	c.mark = Sample{}
	c.dev.ResetCounters()
	c.ch.ResetCounters()
}

// Span runs f, attributing its direct I/O activity to name.
func (c *Collector) Span(name string, f func() error) error {
	c.begin(name)
	err := f()
	c.end(name)
	return err
}

func (c *Collector) begin(name string) {
	c.charge()
	c.stack = append(c.stack, c.index(name))
}

func (c *Collector) end(name string) {
	n := len(c.stack)
	if n == 0 || c.names[c.stack[n-1]] != name {
		panic(fmt.Sprintf("metrics: unbalanced span %q", name))
	}
	c.charge()
	c.stack = c.stack[:n-1]
}

// charge snapshots the counters and charges the activity since the
// previous boundary to the innermost open span, if any.
func (c *Collector) charge() {
	now := c.now()
	if n := len(c.stack); n > 0 {
		i := c.stack[n-1]
		c.samples[i] = c.samples[i].Add(now.Sub(c.mark))
	}
	c.mark = now
}

// index returns name's slot, appending a zero one on first sight. A
// session opens about ten distinct names, so a linear scan beats a map.
func (c *Collector) index(name string) int {
	for i, n := range c.names {
		if n == name {
			return i
		}
	}
	c.names = append(c.names, name)
	c.samples = append(c.samples, Sample{})
	return len(c.names) - 1
}

// SampleOf returns the accumulated activity of a span.
func (c *Collector) SampleOf(name string) Sample {
	for i, n := range c.names {
		if n == name {
			return c.samples[i]
		}
	}
	return Sample{}
}

// TimeOf returns the simulated I/O time of a span (no communication).
func (c *Collector) TimeOf(name string) time.Duration {
	return c.model.IOTime(c.SampleOf(name))
}

// CommTimeOf returns the simulated communication time of a span, at the
// link speed snapshotted when the collector was created.
func (c *Collector) CommTimeOf(name string) time.Duration {
	return c.model.CommTime(c.SampleOf(name), c.mbps)
}

// SimTimeOf returns a span's full simulated duration — I/O plus
// communication at the snapshotted link speed. Because activity is
// attributed to the innermost open span only, summing SimTimeOf over
// Names() decomposes the session's attributed cost without double
// counting; the trace layer builds its per-operator spans from this.
func (c *Collector) SimTimeOf(name string) time.Duration {
	return c.model.Time(c.SampleOf(name), c.mbps)
}

// Names returns the span names in first-seen order.
func (c *Collector) Names() []string {
	out := make([]string, len(c.names))
	copy(out, c.names)
	return out
}

// Breakdown returns each span's simulated flash I/O time (no
// communication), keyed by span name. Activity outside every span is not
// included; use the Device counters for grand totals.
func (c *Collector) Breakdown() map[string]time.Duration {
	out := make(map[string]time.Duration, len(c.names))
	for i, n := range c.names {
		out[n] = c.model.IOTime(c.samples[i])
	}
	return out
}

// FormatBreakdown renders the per-span costs for human consumption.
func (c *Collector) FormatBreakdown() string {
	names := c.Names()
	sort.Strings(names)
	out := ""
	for _, n := range names {
		s := c.SampleOf(n)
		out += fmt.Sprintf("%-10s %12v  (reads=%d writes=%d bytes=%d)\n",
			n, c.model.IOTime(s), s.Flash.PageReads, s.Flash.PageWrites, s.Flash.BytesToRAM)
	}
	return out
}
