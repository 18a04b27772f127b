package exec

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// linearUnion is the ∪ as a linear scan over every source head: each
// output takes the first source holding the minimal head. It is the
// reference for unionStream's output and pull order.
type linearUnion struct {
	srcs []idStream
	head []int64 // current head per source; -1 = exhausted
	last int64
}

func newLinearUnion(srcs []idStream) (*linearUnion, error) {
	u := &linearUnion{srcs: srcs, head: make([]int64, len(srcs)), last: -1}
	for i, s := range srcs {
		v, ok, err := s.next()
		if err != nil {
			u.close()
			return nil, err
		}
		if !ok {
			u.head[i] = -1
		} else {
			u.head[i] = int64(v)
		}
	}
	return u, nil
}

func (u *linearUnion) next() (uint32, bool, error) {
	for {
		min := int64(-1)
		minI := -1
		for i, h := range u.head {
			if h >= 0 && (min < 0 || h < min) {
				min, minI = h, i
			}
		}
		if minI < 0 {
			return 0, false, nil
		}
		v, ok, err := u.srcs[minI].next()
		if err != nil {
			return 0, false, err
		}
		if !ok {
			u.head[minI] = -1
		} else {
			if int64(v) <= u.head[minI] {
				return 0, false, fmt.Errorf("exec: unsorted sublist (id %d after %d)", v, u.head[minI])
			}
			u.head[minI] = int64(v)
		}
		if min != u.last {
			u.last = min
			return uint32(min), true, nil
		}
	}
}

func (u *linearUnion) close() {
	for _, s := range u.srcs {
		s.close()
	}
}

// pull is one next() call answered by a recorded source.
type pull struct {
	src int
	v   uint32
	ok  bool
}

// recStream yields ids from a slice, logging every pull, and fails on
// pull number failAt (counting from 1; 0 never fails).
type recStream struct {
	id     int
	ids    []uint32
	i      int
	pulls  int
	failAt int
	log    *[]pull
	closed bool
}

var errSource = errors.New("source failed")

func (s *recStream) next() (uint32, bool, error) {
	s.pulls++
	if s.pulls == s.failAt {
		return 0, false, errSource
	}
	if s.i >= len(s.ids) {
		*s.log = append(*s.log, pull{src: s.id})
		return 0, false, nil
	}
	v := s.ids[s.i]
	s.i++
	*s.log = append(*s.log, pull{src: s.id, v: v, ok: true})
	return v, true, nil
}

func (s *recStream) close() { s.closed = true }

func recSources(lists [][]uint32, log *[]pull) []idStream {
	srcs := make([]idStream, len(lists))
	for i, l := range lists {
		srcs[i] = &recStream{id: i, ids: l, log: log}
	}
	return srcs
}

// randLists draws k ascending lists from [0, universe): a small universe
// gives heavy cross-source duplication, and about one list in five is
// empty.
func randLists(rng *rand.Rand, k, universe int) [][]uint32 {
	lists := make([][]uint32, k)
	for i := range lists {
		if rng.Intn(5) == 0 {
			continue
		}
		n := rng.Intn(universe)
		seen := map[uint32]bool{}
		for j := 0; j < n; j++ {
			seen[uint32(rng.Intn(universe))] = true
		}
		for v := range seen {
			lists[i] = append(lists[i], v)
		}
		sort.Slice(lists[i], func(a, b int) bool { return lists[i][a] < lists[i][b] })
	}
	return lists
}

// take reads at most m ids (all of them when m < 0).
func take(t *testing.T, s idStream, m int) []uint32 {
	t.Helper()
	var out []uint32
	for m < 0 || len(out) < m {
		v, ok, err := s.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out = append(out, v)
	}
	return out
}

// The heap union yields exactly the sorted, deduplicated union of its
// sources, for any fan-in, with empty sources and shared ids.
func TestUnionStreamMatchesSortDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(64)
		lists := randLists(rng, k, 1+rng.Intn(200))
		set := map[uint32]bool{}
		srcs := make([]idStream, k)
		for i, l := range lists {
			for _, v := range l {
				set[v] = true
			}
			srcs[i] = newSliceStream(l)
		}
		var want []uint32
		for v := range set {
			want = append(want, v)
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		u, err := newUnionStream(srcs)
		if err != nil {
			t.Fatal(err)
		}
		got := take(t, u, -1)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (k=%d): union = %v, want %v", trial, k, got, want)
		}
	}
}

// The heap union pulls its sources in exactly the linear scan's order —
// the same source for every tie — whether it is drained or stopped after
// m outputs, so the flash reads behind the sources are unchanged.
func TestUnionStreamPullOrderMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(40)
		lists := randLists(rng, k, 1+rng.Intn(30))
		m := -1
		if trial%2 == 1 {
			m = rng.Intn(20)
		}
		var heapLog, linLog []pull
		hu, err := newUnionStream(recSources(lists, &heapLog))
		if err != nil {
			t.Fatal(err)
		}
		lu, err := newLinearUnion(recSources(lists, &linLog))
		if err != nil {
			t.Fatal(err)
		}
		hOut, lOut := take(t, hu, m), take(t, lu, m)
		if !reflect.DeepEqual(hOut, lOut) {
			t.Fatalf("trial %d: outputs differ:\n heap   %v\n linear %v", trial, hOut, lOut)
		}
		if !reflect.DeepEqual(heapLog, linLog) {
			t.Fatalf("trial %d (k=%d, m=%d): pull sequences differ:\n heap   %v\n linear %v", trial, k, m, heapLog, linLog)
		}
	}
}

// A source that is not strictly ascending fails the union at the same
// pull, with the same error, as the linear scan.
func TestUnionStreamUnsortedSource(t *testing.T) {
	lists := [][]uint32{{1, 4, 9}, {2, 5, 5, 8}, {3}}
	var heapLog, linLog []pull
	hu, err := newUnionStream(recSources(lists, &heapLog))
	if err != nil {
		t.Fatal(err)
	}
	lu, err := newLinearUnion(recSources(lists, &linLog))
	if err != nil {
		t.Fatal(err)
	}
	_, hErr := drain(hu)
	_, lErr := drain(lu)
	if hErr == nil || !strings.Contains(hErr.Error(), "unsorted sublist (id 5 after 5)") {
		t.Fatalf("heap union error = %v", hErr)
	}
	if lErr == nil || hErr.Error() != lErr.Error() {
		t.Fatalf("errors differ: heap %v, linear %v", hErr, lErr)
	}
	if !reflect.DeepEqual(heapLog, linLog) {
		t.Fatalf("pull sequences differ:\n heap   %v\n linear %v", heapLog, linLog)
	}
}

// A source failing mid-stream fails the union with its error, after the
// ids that preceded the failure.
func TestUnionStreamSourceFailsMidStream(t *testing.T) {
	var log []pull
	srcs := recSources([][]uint32{{1, 3, 5, 7}, {2, 4, 6}}, &log)
	srcs[1].(*recStream).failAt = 3 // primes 2, then pulls 4, then fails
	u, err := newUnionStream(srcs)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint32
	for {
		v, ok, err := u.next()
		if err != nil {
			if !errors.Is(err, errSource) {
				t.Fatalf("err = %v, want the source's error", err)
			}
			break
		}
		if !ok {
			t.Fatal("union ended without the source's error")
		}
		got = append(got, v)
	}
	if want := []uint32{1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ids before the failure = %v, want %v", got, want)
	}
	u.close()
	for i, s := range srcs {
		if !s.(*recStream).closed {
			t.Fatalf("source %d not closed", i)
		}
	}
}

// A source failing while the union primes its heads fails the
// constructor, which closes every source, those primed and those not.
func TestUnionStreamPrimingFailureClosesSources(t *testing.T) {
	var log []pull
	srcs := recSources([][]uint32{{1}, {2}, {3}, {4}}, &log)
	srcs[2].(*recStream).failAt = 1
	u, err := newUnionStream(srcs)
	if !errors.Is(err, errSource) || u != nil {
		t.Fatalf("newUnionStream = %v, %v; want nil and the source's error", u, err)
	}
	for i, s := range srcs {
		if !s.(*recStream).closed {
			t.Fatalf("source %d not closed", i)
		}
	}
}

var benchUnionSink uint32

// BenchmarkUnionStream measures the host cost of the Merge ∪ per output
// id at fan-in k, over in-memory sources with every id held by two of
// them.
func BenchmarkUnionStream(b *testing.B) {
	for _, k := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			const perSrc = 512
			lists := make([][]uint32, k)
			for i := range lists {
				for j := 0; j < perSrc; j++ {
					lists[i] = append(lists[i], uint32(j*k/2+i/2))
				}
			}
			srcs := make([]idStream, k)
			b.ReportAllocs()
			for b.Loop() {
				for i, l := range lists {
					srcs[i] = newSliceStream(l)
				}
				u, err := newUnionStream(srcs)
				if err != nil {
					b.Fatal(err)
				}
				for {
					v, ok, err := u.next()
					if err != nil {
						b.Fatal(err)
					}
					if !ok {
						break
					}
					benchUnionSink = v
				}
			}
		})
	}
}
