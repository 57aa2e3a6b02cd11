package opf

import (
	"math"

	"gridmtd/internal/memo"
	"gridmtd/internal/metrics"
)

// solveCacheCap bounds each engine's dispatch-solve memo. Each entry holds
// the objective, the dispatch vector (nG floats) and the packed key
// (N + L floats), about 6 KB at ieee300 scale — a thousand entries cover
// a cold selection's distinct candidates several times over for a few MB
// per network.
const solveCacheCap = 1024

// solveGlobal aggregates dispatch-solve-memo traffic process-wide, like
// the lp package's global revised-simplex counters: one snapshot for
// /v1/stats and mtdexp -v.
var solveGlobal metrics.Sum[SolveCacheStats]

// SolveCacheStats is a snapshot of the process-wide dispatch-solve-memo
// counters.
type SolveCacheStats struct {
	// Hits / Misses count memo lookups by outcome. A miss created the
	// entry and paid one full dispatch solve (counted in the lp
	// Solves/PrescreenHits telemetry as usual); a hit joined or read
	// another lookup's solve.
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
}

// GlobalSolveCacheStats returns the process-wide memo counters.
func GlobalSolveCacheStats() SolveCacheStats { return solveGlobal.Load() }

// solved is one memoized dispatch LP: the objective and the optimal
// dispatch (MW). Entries are immutable once computed; callers that hand
// the dispatch out copy it.
type solved struct {
	obj float64
	x   []float64
}

// lookup returns the dispatch LP of the current (loads, x) from the
// engine's memo. The key is the exact bit pattern of both, so a hit
// returns the result of a bitwise-identical LP — no tolerance is involved
// in reuse. Every solve is a pure from-seed function of (loads, x) (see
// prepare), so a hit is bitwise indistinguishable from recomputing and
// the hit/miss pattern — and with it scheduling, worker count and pool
// order — cannot influence any observable result. The selection search
// re-evaluates bitwise-identical candidates constantly (multi-start
// re-evaluation at the clamped optimum, γ-ladder backoffs re-walking
// earlier simplices, corner polls sharing corners), and every one of those
// repeats collapses into a map lookup. Deterministic errors (infeasibility,
// PTDF build failures — all pure functions of the input) are kept like
// results.
//
// The lookup that creates the entry solves it on w, or on a pooled
// workspace when w is nil; computed reports that case, in which w's
// factorizer holds x afterwards.
func (e *DispatchEngine) lookup(w *dispatchWorkspace, x []float64) (r solved, computed bool, err error) {
	r, o, err := e.cache.Do(e.solveKey(x), func() (solved, error) {
		ws := w
		if ws == nil {
			ws = e.pooled()
			defer e.pool.Put(ws)
		}
		sol, err := e.prepare(ws, x, e.seedBasis())
		if err != nil {
			return solved{}, err
		}
		return solved{sol.Objective, append([]float64(nil), sol.X...)}, nil
	})
	if o == memo.Created {
		solveGlobal.Add(SolveCacheStats{Misses: 1})
	} else {
		solveGlobal.Add(SolveCacheStats{Hits: 1})
	}
	return r, o == memo.Created, err
}

// solveKey packs the bit patterns of the network's current bus loads and
// the candidate reactances into a map key. Loads are part of the key
// because the engine reads them fresh on every solve (day sweeps mutate
// them between batches on the same engine).
func (e *DispatchEngine) solveKey(x []float64) string {
	buses := e.n.Buses
	b := make([]byte, 8*(len(buses)+len(x)))
	k := 0
	put := func(v float64) {
		u := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			b[k] = byte(u >> s)
			k++
		}
	}
	for i := range buses {
		put(buses[i].LoadMW)
	}
	for _, v := range x {
		put(v)
	}
	return string(b)
}
