package opf

import (
	"container/list"
	"math"
	"sync"

	"gridmtd/internal/metrics"
)

// defaultSolveCacheCap bounds a SolveCache's LRU. Each entry holds the
// objective, the dispatch vector (nG floats) and the packed key
// (N + L floats), about 6 KB at ieee300 scale — a thousand entries cover
// a cold selection's distinct candidates several times over for a few MB
// per network.
const defaultSolveCacheCap = 1024

// solveGlobal aggregates dispatch-solve-cache traffic process-wide, like
// the lp package's global revised-simplex counters: one snapshot for
// /v1/stats and mtdexp -v.
var solveGlobal metrics.Sum[SolveCacheStats]

// SolveCacheStats is a snapshot of the process-wide dispatch-solve-cache
// counters.
type SolveCacheStats struct {
	// Hits / Misses count cache lookups by outcome. A hit returns the
	// memoized LP result without running the simplex; a miss pays one
	// full dispatch solve (counted in the lp Solves/PrescreenHits
	// telemetry as usual).
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
}

// Delta returns the field-wise counter increments s − since, for
// per-request assertions against the cumulative process-wide counters.
func (s SolveCacheStats) Delta(since SolveCacheStats) SolveCacheStats { return metrics.Delta(s, since) }

// GlobalSolveCacheStats returns the process-wide cache counters.
func GlobalSolveCacheStats() SolveCacheStats { return solveGlobal.Load() }

// SolveCache memoizes dispatch-LP results per (bus loads, reactance
// vector) for one engine. The key is the exact bit pattern of both, so a
// hit returns the result of a bitwise-identical LP — no tolerance is
// involved in reuse. It exists because every fast-path solve is a pure
// from-seed function of (loads, x) (see DispatchEngine.Cost): a hit is
// bitwise indistinguishable from recomputing, so the hit/miss pattern —
// and with it scheduling, worker count and pool order — cannot influence
// any observable result. The selection search re-evaluates bitwise-
// identical candidates constantly (multi-start re-evaluation at the
// clamped optimum, γ-ladder backoffs re-walking earlier simplices, corner
// polls sharing corners), and every one of those repeats collapses into a
// map lookup.
//
// Entries are immutable once computed (callers receive copies of the
// dispatch vector), so one entry may serve concurrent readers; concurrent
// misses on one key share a single solve. Deterministic errors
// (infeasibility, PTDF build failures — all pure functions of the input)
// are cached like results.
//
// A SolveCache is safe for concurrent use. A nil cache is valid and means
// every solve runs fresh (the dense path, which keeps its historical
// bitwise behavior).
type SolveCache struct {
	cap int

	mu      sync.Mutex
	entries map[string]*solveEntry
	lru     *list.List // front = most recent; values are keys
}

type solveEntry struct {
	once sync.Once
	obj  float64
	x    []float64 // optimal dispatch (MW), nil on error
	err  error
	elem *list.Element
}

// newSolveCache builds a cache; capacity <= 0 selects the default.
func newSolveCache(capacity int) *SolveCache {
	if capacity <= 0 {
		capacity = defaultSolveCacheCap
	}
	return &SolveCache{
		cap:     capacity,
		entries: map[string]*solveEntry{},
		lru:     list.New(),
	}
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

// entry returns the cache slot for key, creating (and LRU-evicting) as
// needed. ok reports whether the slot already existed.
func (c *SolveCache) entry(key string) (e *solveEntry, ok bool) {
	c.mu.Lock()
	e, ok = c.entries[key]
	if ok {
		c.lru.MoveToFront(e.elem)
	} else {
		e = &solveEntry{}
		e.elem = c.lru.PushFront(key)
		c.entries[key] = e
		for c.lru.Len() > c.cap {
			old := c.lru.Back()
			c.lru.Remove(old)
			delete(c.entries, old.Value.(string))
		}
	}
	c.mu.Unlock()
	return e, ok
}
