package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"ghostdb/internal/datagen"
	"ghostdb/internal/exec"
	"ghostdb/internal/flash"
)

// Engine settings shared by the workloads. The forest workloads run the
// ghostdb-server defaults (result and page cache sizes, admitted
// sessions, bus audit off, no shedding) on two tokens paced like
// `ghostdb-bench -exp slo`; paper_q is the paper's one-token deployment
// with the same caches switched on.
const (
	serverResultCache = 8 << 20
	serverPageCache   = 4 << 20
	serverSessions    = 8
	// forestPace holds each token slot for SimTime/8 of wall time, the
	// pacing `-exp slo` and the sharding sweep use.
	forestPace = 8
	// forestCompact is the delta depth, in pages, that triggers a
	// background compaction: low enough that compaction runs many times
	// per write_mix run and about one statement in ten waits behind one,
	// so write_mix's p99 lies well inside the compaction stalls. At the
	// DML sweep's 16 pages the p99 sat at their edge and spread by 28%
	// from run to run; at 8 pages by 4%.
	forestCompact = 8
	// sloTarget is the p99 bound a ladder rate must meet to count as
	// sustainable (the `-exp slo` target).
	sloTarget = 60 * time.Millisecond

	synthScale  = 0.01
	forestScale = 0.05
	forestTrees = 2
)

// workload is one named input mix with the engine it runs on.
type workload struct {
	name string
	// closed marks a one-client closed loop; perSecond then fixes the
	// number of statements per --seconds, so the statement list (and the
	// simulated metrics) depend on the seed alone.
	closed    bool
	perSecond int
	// rate is the open loop's nominal Poisson arrival rate (statements/s)
	// and ladder the fixed rates max_sustainable_qps climbs, ascending;
	// the nominal window doubles as the first rung.
	rate   float64
	ladder []float64
	// sloQuantile is the latency percentile a rung must keep within
	// sloTarget to count as sustainable.
	sloQuantile float64
	// nominalShare is the part of --seconds given to the nominal window.
	// Each ladder rung above it offers rungPerSecond statements per
	// --seconds: a fixed amount of work rather than a fixed time, so
	// every rung spans several compaction cycles on write_mix.
	nominalShare  float64
	rungPerSecond int
	// twoPass runs the nominal window as two halves, one before and one
	// after the ladder, and reports the lower of their latency
	// percentiles.
	twoPass bool
	// warmup statements run closed loop inside every timed set-up (from
	// serverSessions clients on the open-loop workloads, to fill the
	// caches).
	warmup int

	dataset func(seed int64) (*datagen.Dataset, error)
	options func() exec.Options
	// statements renders the next n statements of the stream from rng.
	statements func(rng *rand.Rand, n int) []string
}

var workloads = map[string]*workload{
	"paper_q": {
		name:      "paper_q",
		closed:    true,
		perSecond: 100,
		warmup:    20,
		dataset:   func(seed int64) (*datagen.Dataset, error) { return datagen.Synthetic(synthScale, seed) },
		options: func() exec.Options {
			return exec.Options{
				FlashParams:      flashFor(synthScale),
				ResultCacheBytes: serverResultCache,
				PageCacheBytes:   serverPageCache,
				BusAuditEntries:  -1,
			}
		},
		statements: paperQStatements,
	},
	"zipf_read": {
		name:          "zipf_read",
		rate:          250,
		ladder:        []float64{250, 2000, 8000, 32000},
		sloQuantile:   0.99,
		nominalShare:  0.4,
		rungPerSecond: 300,
		twoPass:       true,
		warmup:        400,
		dataset:       forestDataset,
		options:       forestOptions,
		statements:    func(rng *rand.Rand, n int) []string { return forestStatements(rng, n, 0) },
	},
	"write_mix": {
		name:          "write_mix",
		rate:          35,
		ladder:        []float64{35, 50, 280},
		sloQuantile:   0.95,
		nominalShare:  0.72,
		rungPerSecond: 20,
		warmup:        200,
		dataset:       forestDataset,
		options:       forestOptions,
		statements:    func(rng *rand.Rand, n int) []string { return forestStatements(rng, n, 0.15) },
	},
}

// flashFor sizes the device to the scale factor exactly as the bench
// lab does (the device allocates lazily, so the bound is generous).
func flashFor(sf float64) flash.Params {
	p := flash.DefaultParams()
	blocks := int(65536 * sf * 4)
	if blocks < 2048 {
		blocks = 2048
	}
	if blocks > 1<<18 {
		blocks = 1 << 18
	}
	p.Blocks = blocks
	return p
}

func forestDataset(seed int64) (*datagen.Dataset, error) {
	return datagen.Forest(forestScale, seed, forestTrees)
}

func forestOptions() exec.Options {
	return exec.Options{
		FlashParams:          flashFor(forestScale),
		Shards:               forestTrees,
		MaxConcurrentQueries: serverSessions,
		ResultCacheBytes:     serverResultCache,
		PageCacheBytes:       serverPageCache,
		BusAuditEntries:      -1,
		PaceSimulation:       forestPace,
		CompactThreshold:     forestCompact,
	}
}

// strata returns n draws from [0,1) in random order, one from each of
// n equal strata: every seed gets the same spread of values (Latin
// hypercube sampling), so the statement mix, and with it each run's
// latency percentiles, varies little from seed to seed.
func strata(rng *rand.Rand, n int) []float64 {
	u := make([]float64, n)
	for i, p := range rng.Perm(n) {
		u[i] = (float64(p) + rng.Float64()) / float64(n)
	}
	return u
}

// schedule lays n statements out over the kinds in mix (repeated in
// proportion, then shuffled) and returns each statement's kind and its
// rank among the statements of that kind.
func schedule(rng *rand.Rand, n int, mix []int) (kinds, rank []int, count map[int]int) {
	kinds = make([]int, n)
	for i := range kinds {
		kinds[i] = mix[i%len(mix)]
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	rank = make([]int, n)
	count = map[int]int{}
	for i, k := range kinds {
		rank[i] = count[k]
		count[k]++
	}
	return kinds, rank, count
}

// logUniform maps u in [0,1) to [lo, hi) with a uniform logarithm, so
// small and large selectivities are equally represented per decade.
func logUniform(u, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + u*(math.Log(hi)-math.Log(lo)))
}

// Query-Q family shapes and their mix (in twentieths).
const (
	shapeQ = iota
	shapeNoCross
	shapeMono
	shapeHiddenOnly
)

var paperQMix = []int{
	shapeQ, shapeQ, shapeQ, shapeQ, shapeQ, shapeQ, shapeQ, shapeQ, shapeQ, shapeQ,
	shapeNoCross, shapeNoCross, shapeNoCross, shapeNoCross,
	shapeMono, shapeMono, shapeMono,
	shapeHiddenOnly, shapeHiddenOnly, shapeHiddenOnly,
}

// paperQStatements renders the query-Q family of §6 over T0…T12: query Q
// itself with one to three visible projections and optionally a hidden
// one (half the statements), its no-Cross variant with the hidden
// selection on T2 (20%), a mono-table mixed selection on T1 (15%) and
// hidden-only selections on T1 and T12 through the climbing indexes
// (15%). Selectivities on T1 are log-uniform in [0.001, 0.3) and on T2
// and T12 in [0.02, 0.2), drawn by strata; a text that repeats is
// redrawn, so the result cache never hits.
func paperQStatements(rng *rand.Rand, n int) []string {
	const joins = "T0.fk1 = T1.id AND T1.fk12 = T12.id"
	kinds, rank, count := schedule(rng, n, paperQMix)
	svU, shU := map[int][]float64{}, map[int][]float64{}
	for k := shapeQ; k <= shapeHiddenOnly; k++ {
		svU[k], shU[k] = strata(rng, count[k]), strata(rng, count[k])
	}
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i, k := range kinds {
		r := rank[i]
		for u, v := svU[k][r], shU[k][r]; ; u, v = rng.Float64(), rng.Float64() {
			sv := datagen.SelValue(logUniform(u, 0.001, 0.3))
			sh := datagen.SelValue(logUniform(v, 0.02, 0.2))
			var sql string
			switch k {
			case shapeQ:
				proj := "T0.id, T1.id, T12.id"
				for c := 1; c <= 1+r%3; c++ {
					proj += fmt.Sprintf(", T1.v%d", c)
				}
				if r%6 >= 3 {
					proj += ", T1.h1"
				}
				sql = fmt.Sprintf("SELECT %s FROM T0, T1, T12 WHERE %s AND T1.v1 < '%s' AND T12.h2 < '%s'",
					proj, joins, sv, sh)
			case shapeNoCross:
				sql = fmt.Sprintf("SELECT T0.id, T1.id, T2.id, T1.v1 FROM T0, T1, T2 "+
					"WHERE T0.fk1 = T1.id AND T0.fk2 = T2.id AND T1.v1 < '%s' AND T2.h2 < '%s'", sv, sh)
			case shapeMono:
				sql = fmt.Sprintf("SELECT T1.id, T1.v2, T1.h3 FROM T1 WHERE T1.v1 < '%s' AND T1.h2 < '%s'", sv, sh)
			default:
				sql = fmt.Sprintf("SELECT T0.id, T1.id, T12.h1 FROM T0, T1, T12 WHERE %s AND T1.h3 < '%s' AND T12.h2 < '%s'",
					joins, sv, sh)
			}
			if !seen[sql] {
				seen[sql] = true
				out = append(out, sql)
				break
			}
		}
	}
	return out
}

// Forest statement kinds and the read mix (in twentieths): point
// lookups are 60% of reads (one in six projects visible columns only,
// the rest a hidden one too), hidden-attribute scans 25% and cross-tree
// scatter COUNT joins 15%.
const (
	lookupVisible = iota
	lookupHidden
	scanHidden
	scatterCount
	updateHidden
	deleteNone
)

var forestReadMix = []int{
	lookupVisible, lookupVisible,
	lookupHidden, lookupHidden, lookupHidden, lookupHidden, lookupHidden,
	lookupHidden, lookupHidden, lookupHidden, lookupHidden, lookupHidden,
	scanHidden, scanHidden, scanHidden, scanHidden, scanHidden,
	scatterCount, scatterCount, scatterCount,
}

// zipfCDF is the cumulative Zipf(s, v=1) distribution over 0..n-1, the
// distribution rand.NewZipf draws from; stratified draws go through its
// inverse.
func zipfCDF(s float64, n int) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for k := 0; k < n; k++ {
		sum += math.Pow(1+float64(k), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

// forestStatements renders the two-tree mix of forestReadMix over both
// trees, with Zipf(1.2) lookup ids. writeShare of the statements are
// UPDATE/DELETEs (two UPDATEs per DELETE) that keep every read's answer
// unchanged: the UPDATEs assign S.h4, which no read projects or filters
// on, and the DELETEs match no id.
func forestStatements(rng *rand.Rand, n int, writeShare float64) []string {
	sRows := datagen.ForestCardinalities(forestScale, forestTrees)["S0"]
	cdf := zipfCDF(1.2, sRows)
	scanSel := []float64{0.05, 0.1, 0.2}
	joinVis := []float64{0.01, 0.02, 0.05}
	joinHid := []float64{0.05, 0.1}

	// One schedule slot per 1/60 of the statements: the read mix scaled
	// to 1-writeShare, then the writes.
	writes := int(math.Round(writeShare * 60))
	var mix []int
	for i := 0; i < 60-writes; i++ {
		mix = append(mix, forestReadMix[i*len(forestReadMix)/(60-writes)])
	}
	for i := 0; i < writes; i++ {
		if i%3 == 2 {
			mix = append(mix, deleteNone)
		} else {
			mix = append(mix, updateHidden)
		}
	}
	kinds, rank, count := schedule(rng, n, mix)
	ids := strata(rng, count[lookupVisible]+count[lookupHidden])
	lookups := 0
	out := make([]string, 0, n)
	for i, kind := range kinds {
		k := rank[i] % forestTrees
		switch kind {
		case lookupVisible, lookupHidden:
			id := sort.SearchFloat64s(cdf, ids[lookups])
			lookups++
			proj := fmt.Sprintf("S%d.id, S%d.v1", k, k)
			if kind == lookupHidden {
				proj += fmt.Sprintf(", S%d.h1", k)
			}
			out = append(out, fmt.Sprintf("SELECT %s FROM S%d WHERE S%d.id = %d", proj, k, k, id))
		case scanHidden:
			out = append(out, fmt.Sprintf("SELECT C%d.id, C%d.v1 FROM C%d WHERE C%d.h2 < '%s'",
				k, k, k, k, datagen.SelValue(scanSel[rank[i]/2%len(scanSel)])))
		case scatterCount:
			out = append(out, fmt.Sprintf("SELECT COUNT(*) FROM S0, S1 WHERE S0.v1 < '%s' AND S1.h2 < '%s'",
				datagen.SelValue(joinVis[rank[i]%len(joinVis)]), datagen.SelValue(joinHid[rank[i]/3%len(joinHid)])))
		case updateHidden:
			lo := rng.Intn(80)
			out = append(out, fmt.Sprintf("UPDATE S%d SET h4 = '%s' WHERE S%d.h5 BETWEEN '%s' AND '%s'",
				k, datagen.PadValue(rng.Intn(datagen.Domain)), k,
				datagen.SelValue(float64(lo)/100), datagen.SelValue(float64(lo+2)/100)))
		case deleteNone:
			out = append(out, fmt.Sprintf("DELETE FROM C%d WHERE C%d.id >= 1000000000", k, k))
		}
	}
	return out
}
