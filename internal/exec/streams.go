// Package exec is GhostDB's secure-side query executor: the operators of
// §3.3–§4 (Vis, CI, Merge, SJoin, BuildBF, ProbeBF, MJoin, Project), the
// per-predicate filtering strategies (Pre, Post, Cross-Pre, Cross-Post,
// Post-Select, NoFilter) and the selectivity-driven planner that chooses
// among them, all operating under the smart USB key's RAM budget and
// I/O-accurate flash cost model.
package exec

import (
	"fmt"

	"ghostdb/internal/ram"
	"ghostdb/internal/store"
)

// idStream produces identifiers in strictly ascending order.
type idStream interface {
	// next returns the next id; ok=false at end of stream.
	next() (uint32, bool, error)
	// close releases any RAM buffers held by the stream.
	close()
}

// emptyStream yields nothing.
type emptyStream struct{}

func (emptyStream) next() (uint32, bool, error) { return 0, false, nil }
func (emptyStream) close()                      {}

// sliceStream yields ids from a host-memory slice. It models data arriving
// over the communication channel, which has a dedicated buffer on the key
// ("the download from Untrusted to Secure can be processed with no RAM
// consumption", §3.4) — so it holds no RAM grant.
type sliceStream struct {
	ids []uint32
	i   int
}

func newSliceStream(ids []uint32) *sliceStream { return &sliceStream{ids: ids} }

func (s *sliceStream) next() (uint32, bool, error) {
	if s.i >= len(s.ids) {
		return 0, false, nil
	}
	v := s.ids[s.i]
	s.i++
	return v, true, nil
}

func (s *sliceStream) close() {}

// seqStream yields 0..n-1 (the degenerate "no selective predicate" case:
// every anchor tuple qualifies so far).
type seqStream struct {
	n, i uint32
}

func (s *seqStream) next() (uint32, bool, error) {
	if s.i >= s.n {
		return 0, false, nil
	}
	v := s.i
	s.i++
	return v, true, nil
}

func (s *seqStream) close() {}

// runStream streams one sorted sublist from flash, holding one RAM buffer.
type runStream struct {
	rd    *store.RunReader
	grant *ram.Grant
}

func newRunStream(seg *store.ListSegment, run store.Run, mem *ram.Manager) (*runStream, error) {
	g, err := mem.AllocBuffers(1)
	if err != nil {
		return nil, fmt.Errorf("exec: run buffer: %w", err)
	}
	return &runStream{rd: seg.NewRunReader(run), grant: g}, nil
}

func (s *runStream) next() (uint32, bool, error) { return s.rd.Next() }

func (s *runStream) close() {
	if s.grant != nil {
		s.grant.Release()
		s.grant = nil
	}
}

// unionStream merges k ascending streams into one ascending, deduplicated
// stream (the ∪ of the Merge operator). The live sources sit in a binary
// min-heap ordered by (head, source index), so each pull costs O(log k).
// That order breaks ties towards the lowest source index, which makes
// the pull sequence — and so the flash page reads behind the sources —
// exactly that of a linear scan for the first minimal head.
type unionStream struct {
	srcs []idStream
	heap []uint64 // live sources as head<<32 | source index
	last int64
}

func newUnionStream(srcs []idStream) (*unionStream, error) {
	u := &unionStream{srcs: srcs, heap: make([]uint64, 0, len(srcs)), last: -1}
	for i, s := range srcs {
		v, ok, err := s.next()
		if err != nil {
			u.close()
			return nil, err
		}
		if ok {
			u.heap = append(u.heap, uint64(v)<<32|uint64(i))
		}
	}
	for i := len(u.heap)/2 - 1; i >= 0; i-- {
		u.down(i)
	}
	return u, nil
}

// down restores the heap order below position i.
func (u *unionStream) down(i int) {
	h := u.heap
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r] < h[m] {
			m = r
		}
		if h[i] <= h[m] {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (u *unionStream) next() (uint32, bool, error) {
	for len(u.heap) > 0 {
		min, i := uint32(u.heap[0]>>32), uint32(u.heap[0])
		v, ok, err := u.srcs[i].next()
		if err != nil {
			return 0, false, err
		}
		if !ok {
			n := len(u.heap) - 1
			u.heap[0] = u.heap[n]
			u.heap = u.heap[:n]
		} else {
			if v <= min {
				return 0, false, fmt.Errorf("exec: unsorted sublist (id %d after %d)", v, min)
			}
			u.heap[0] = uint64(v)<<32 | uint64(i)
		}
		u.down(0)
		if int64(min) != u.last { // dedup across sources
			u.last = int64(min)
			return min, true, nil
		}
	}
	return 0, false, nil
}

func (u *unionStream) close() {
	for _, s := range u.srcs {
		s.close()
	}
}

// intersectStream intersects k ascending streams (the ∩ of Merge). Each
// source keeps an explicit head so no value can be skipped while the
// streams are being aligned.
type intersectStream struct {
	srcs   []idStream
	head   []int64 // current head per source; -1 = exhausted
	primed bool
	done   bool
}

func newIntersectStream(srcs []idStream) *intersectStream {
	return &intersectStream{srcs: srcs, head: make([]int64, len(srcs))}
}

func (s *intersectStream) advance(i int) error {
	v, ok, err := s.srcs[i].next()
	if err != nil {
		return err
	}
	if !ok {
		s.head[i] = -1
		s.done = true
		return nil
	}
	s.head[i] = int64(v)
	return nil
}

func (s *intersectStream) next() (uint32, bool, error) {
	if len(s.srcs) == 0 || s.done {
		return 0, false, nil
	}
	if !s.primed {
		s.primed = true
		for i := range s.srcs {
			if err := s.advance(i); err != nil {
				return 0, false, err
			}
			if s.done {
				return 0, false, nil
			}
		}
	}
	for {
		// Target: the maximum head. All sources must reach it.
		max := s.head[0]
		for _, h := range s.head[1:] {
			if h > max {
				max = h
			}
		}
		aligned := true
		for i := range s.srcs {
			for s.head[i] < max {
				if err := s.advance(i); err != nil {
					return 0, false, err
				}
				if s.done {
					return 0, false, nil
				}
			}
			if s.head[i] > max {
				aligned = false
			}
		}
		if !aligned {
			continue
		}
		out := uint32(max)
		for i := range s.srcs {
			if err := s.advance(i); err != nil {
				return 0, false, err
			}
		}
		return out, true, nil
	}
}

func (s *intersectStream) close() {
	for _, src := range s.srcs {
		src.close()
	}
}

// filterStream applies a predicate (used for anchor id predicates, which
// cost no I/O: the ids are flowing by anyway).
type filterStream struct {
	src  idStream
	keep func(uint32) bool
}

func (f *filterStream) next() (uint32, bool, error) {
	for {
		v, ok, err := f.src.next()
		if err != nil || !ok {
			return 0, false, err
		}
		if f.keep(v) {
			return v, true, nil
		}
	}
}

func (f *filterStream) close() { f.src.close() }

// drain reads a stream to completion into a slice (small results only).
func drain(s idStream) ([]uint32, error) {
	defer s.close()
	var out []uint32
	for {
		v, ok, err := s.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, v)
	}
}
