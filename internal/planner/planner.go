// Package planner is the long-running selection front-end of the
// reproduction: a concurrency-safe service object answering MTD selection,
// γ-evaluation, day-sweep and placement requests against the embedded case
// registry. It amortizes everything amortizable across requests:
//
//   - an LRU of resolved cases (one immutable network per (case, load
//     scale) pair), whose dispatch-OPF engines the scenario runner caches
//     by network pointer — so the factorizer workspaces, LP skeletons and
//     warm simplex bases survive from request to request;
//   - a memo LRU of finished responses keyed by the full request
//     parameterization (case, setpoint, budgets, seeds), so a repeated
//     request is a map lookup instead of a multi-start search.
//
// Requests with identical keys share one computation — single-flight
// coalescing: the second caller joins the first's in-flight search instead
// of racing the memo, observable through the result_coalesced counter.
// Requests with different keys compute concurrently, optionally through a
// bounded admission queue (Config.MaxInflight / QueueDepth) that sheds
// load with ErrOverloaded once the queue is full, and optionally backed by
// a persistent disk cache (Config.Disk) so a restarted process serves
// previously computed responses without re-solving. cmd/gridmtdd serves
// this planner over HTTP.
package planner

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"gridmtd/internal/core"
	"gridmtd/internal/grid"
	"gridmtd/internal/lp"
	"gridmtd/internal/opf"
	"gridmtd/internal/planner/diskcache"
	"gridmtd/internal/scenario"
	"gridmtd/internal/subspace"
)

// ErrUnreachable is returned by Select when the requested γ threshold is
// beyond the case's D-FACTS reach and no max-γ fallback was requested.
var ErrUnreachable = errors.New("planner: gamma threshold unreachable within D-FACTS limits")

// ErrOverloaded is returned when admission control sheds a request: the
// worker pool is saturated and the work queue is at depth. The result is
// not memoized — an immediate retry (the HTTP layer answers 429 with
// Retry-After) re-enters the queue.
var ErrOverloaded = errors.New("planner: overloaded, work queue full; retry later")

// ErrPanicked is returned when a request's computation panicked. Like a
// shed, the failure is not memoized: an identical retry computes afresh.
var ErrPanicked = errors.New("planner: computation panicked")

// ErrInvalidReactance is returned for a reactance vector with an entry
// that is not a positive finite number. The request is rejected before
// the memo, so nothing is computed, memoized or written to disk.
var ErrInvalidReactance = errors.New("planner: reactances must be positive and finite")

// checkReactances rejects any entry of x that is ≤ 0, NaN or infinite.
func checkReactances(field string, x []float64) error {
	for i, v := range x {
		if !(v > 0) || math.IsInf(v, 1) {
			return fmt.Errorf("%w: %s[%d] = %v", ErrInvalidReactance, field, i, v)
		}
	}
	return nil
}

// Config tunes a Planner.
type Config struct {
	// Backend forces the dispatch engines' linear-algebra backend
	// (AutoBackend picks by case size).
	Backend grid.Backend
	// MaxCases bounds the case LRU (default 8 (case, scale) entries).
	MaxCases int
	// MaxResults bounds the response memo LRU (default 256).
	MaxResults int
	// Parallelism bounds each request's internal search parallelism
	// (0 = GOMAXPROCS). Results are identical for any setting.
	Parallelism int
	// MaxInflight bounds how many requests may compute concurrently
	// (0 = unbounded, admission control off). Memo, coalesced and disk
	// hits never consume a slot.
	MaxInflight int
	// QueueDepth bounds how many computations may wait for a slot
	// (default 4×MaxInflight when admission control is on); past the
	// depth, requests shed with ErrOverloaded.
	QueueDepth int
	// Disk attaches a persistent response cache: computed responses are
	// written through, and a fresh process serves previously computed
	// requests from disk without re-solving. Entries are keyed on the
	// bitwise memo key plus the case registry content hash, so stale
	// caches from a different registry build read as misses.
	Disk *diskcache.Cache
}

func (c Config) withDefaults() Config {
	if c.MaxCases <= 0 {
		c.MaxCases = 8
	}
	if c.MaxResults <= 0 {
		c.MaxResults = 256
	}
	return c
}

// Stats counts cache traffic and the γ-backend names selection-style
// requests sent.
type Stats struct {
	CaseHits     int64 `json:"case_hits"`
	CaseMisses   int64 `json:"case_misses"`
	ResultHits   int64 `json:"result_hits"`
	ResultMisses int64 `json:"result_misses"`
	// ResultCoalesced counts requests that joined an identical in-flight
	// computation (single-flight coalescing) instead of hitting a finished
	// memo entry or computing themselves.
	ResultCoalesced int64 `json:"result_coalesced"`
	// GammaExactServed / GammaSparseServed / GammaSketchServed count
	// answered select and placement requests by the γ-backend name they
	// asked for ("" and "auto" count as exact). Every name is an alias of
	// the exact evaluator, so they show only what clients send.
	GammaExactServed  int64 `json:"gamma_exact_served"`
	GammaSparseServed int64 `json:"gamma_sparse_served"`
	GammaSketchServed int64 `json:"gamma_sketch_served"`
	// LP is the process-wide revised-simplex counter snapshot
	// (lp.GlobalRevisedStats) taken when the Stats call was answered.
	// Warm-path health (eta updates vs refactorizations, fallback rate)
	// is the production-observable face of the dispatch-solve cost.
	LP LPStats `json:"lp"`
	// Estimators is the process-wide estimator-cache snapshot
	// (core.GlobalEstimatorCacheStats): how many state-estimator rebuilds
	// repeat selections avoided, and how many of the remaining builds the
	// rank-structured fast path served instead of a full QR.
	Estimators core.EstimatorCacheStats `json:"estimators"`
	// SolveCache is the process-wide dispatch-solve memo snapshot
	// (opf.GlobalSolveCacheStats): how many dispatch LPs the bitwise
	// (loads, reactances) memo answered without touching the solver.
	SolveCache opf.SolveCacheStats `json:"solve_cache"`
	// Admission is the bounded work queue's traffic (all zero when
	// admission control is off).
	Admission AdmissionStats `json:"admission"`
	// Disk is the persistent response cache's traffic (all zero when no
	// disk cache is attached).
	Disk diskcache.Stats `json:"disk_cache"`
}

// Delta returns the counter increments between an earlier Stats snapshot
// and this one (field-wise s − since). The process-global counters served
// by /v1/stats are cumulative; tests, CI and dashboards diff two
// snapshots with it instead of racing absolute values. The γ-backend
// label is copied from the newer snapshot.
func (s Stats) Delta(since Stats) Stats {
	return Stats{
		CaseHits:          s.CaseHits - since.CaseHits,
		CaseMisses:        s.CaseMisses - since.CaseMisses,
		ResultHits:        s.ResultHits - since.ResultHits,
		ResultMisses:      s.ResultMisses - since.ResultMisses,
		ResultCoalesced:   s.ResultCoalesced - since.ResultCoalesced,
		GammaExactServed:  s.GammaExactServed - since.GammaExactServed,
		GammaSparseServed: s.GammaSparseServed - since.GammaSparseServed,
		GammaSketchServed: s.GammaSketchServed - since.GammaSketchServed,
		LP:                s.LP.Delta(since.LP),
		Estimators:        s.Estimators.Delta(since.Estimators),
		SolveCache:        s.SolveCache.Delta(since.SolveCache),
		Admission:         s.Admission.Delta(since.Admission),
		Disk:              s.Disk.Delta(since.Disk),
	}
}

// LPStats mirrors lp.RevisedStats with the JSON field names /v1/stats
// serves. See lp.RevisedStats for the counters' precise meanings.
type LPStats struct {
	Solves           int `json:"solves"`
	WarmSolves       int `json:"warm_solves"`
	ColdSolves       int `json:"cold_solves"`
	Fallbacks        int `json:"fallbacks"`
	PrimalPivots     int `json:"primal_pivots"`
	DualPivots       int `json:"dual_pivots"`
	SEPivots         int `json:"se_pivots"`
	BoundFlips       int `json:"bound_flips"`
	WeightResets     int `json:"weight_resets"`
	EtaUpdates       int `json:"eta_updates"`
	Refactorizations int `json:"refactorizations"`
	PrescreenHits    int `json:"prescreen_hits"`
	PrescreenProbes  int `json:"prescreen_probes"`
	InfeasibleSolves int `json:"infeasible_solves"`
}

// Delta returns the field-wise counter increments s − since.
func (s LPStats) Delta(since LPStats) LPStats {
	return LPStats{
		Solves:           s.Solves - since.Solves,
		WarmSolves:       s.WarmSolves - since.WarmSolves,
		ColdSolves:       s.ColdSolves - since.ColdSolves,
		Fallbacks:        s.Fallbacks - since.Fallbacks,
		PrimalPivots:     s.PrimalPivots - since.PrimalPivots,
		DualPivots:       s.DualPivots - since.DualPivots,
		SEPivots:         s.SEPivots - since.SEPivots,
		BoundFlips:       s.BoundFlips - since.BoundFlips,
		WeightResets:     s.WeightResets - since.WeightResets,
		EtaUpdates:       s.EtaUpdates - since.EtaUpdates,
		Refactorizations: s.Refactorizations - since.Refactorizations,
		PrescreenHits:    s.PrescreenHits - since.PrescreenHits,
		PrescreenProbes:  s.PrescreenProbes - since.PrescreenProbes,
		InfeasibleSolves: s.InfeasibleSolves - since.InfeasibleSolves,
	}
}

// lpStatsSnapshot converts the process-wide lp counters into the
// JSON-tagged mirror.
func lpStatsSnapshot() LPStats {
	g := lp.GlobalRevisedStats()
	return LPStats{
		Solves:           g.Solves,
		WarmSolves:       g.WarmSolves,
		ColdSolves:       g.ColdSolves,
		Fallbacks:        g.Fallbacks,
		PrimalPivots:     g.PrimalPivots,
		DualPivots:       g.DualPivots,
		SEPivots:         g.SEPivots,
		BoundFlips:       g.BoundFlips,
		WeightResets:     g.WeightResets,
		EtaUpdates:       g.EtaUpdates,
		Refactorizations: g.Refactorizations,
		PrescreenHits:    g.PrescreenHits,
		PrescreenProbes:  g.PrescreenProbes,
		InfeasibleSolves: g.InfeasibleSolves,
	}
}

// Planner is the long-running selection service. Safe for concurrent use.
type Planner struct {
	cfg    Config
	runner *scenario.Runner
	adm    *admission
	disk   *diskcache.Cache

	mu      sync.Mutex
	cases   map[string]*caseEntry
	caseLRU *list.List // front = most recent; values are case keys
	results map[string]*resultEntry
	resLRU  *list.List
	stats   Stats
}

type caseEntry struct {
	once sync.Once
	net  *grid.Network
	err  error
	elem *list.Element

	// gammaOnce builds gamma, the exact γ engine against the case's nominal
	// reactances, on the first /v1/gamma request that omits x_old. It lives
	// and is evicted with the case entry.
	gammaOnce sync.Once
	gamma     *core.GammaEvaluator
}

// nominalGamma returns the case's exact γ evaluator for the nominal x_old.
// The pooled workspaces make it safe for concurrent requests.
func (e *caseEntry) nominalGamma() *core.GammaEvaluator {
	e.gammaOnce.Do(func() {
		e.gamma = core.NewGammaEvaluator(e.net, e.net.Reactances())
	})
	return e.gamma
}

type resultEntry struct {
	once    sync.Once
	done    chan struct{} // closed when the computation (or disk load) finished
	resp    any
	err     error
	elapsed time.Duration
	source  string // sourceComputed or sourceDisk, set by the first caller
	elem    *list.Element
}

// New builds a planner.
func New(cfg Config) *Planner {
	cfg = cfg.withDefaults()
	return &Planner{
		cfg:     cfg,
		runner:  scenario.NewRunner(),
		adm:     newAdmission(cfg.MaxInflight, cfg.QueueDepth),
		disk:    cfg.Disk,
		cases:   map[string]*caseEntry{},
		caseLRU: list.New(),
		results: map[string]*resultEntry{},
		resLRU:  list.New(),
	}
}

// Stats returns a snapshot of the cache counters plus the process-wide
// revised-simplex counters.
func (p *Planner) Stats() Stats {
	p.mu.Lock()
	s := p.stats
	p.mu.Unlock()
	s.LP = lpStatsSnapshot()
	s.Estimators = core.GlobalEstimatorCacheStats()
	s.SolveCache = opf.GlobalSolveCacheStats()
	s.Admission = p.adm.stats()
	s.Disk = p.disk.Stats()
	return s
}

// caseFor resolves the immutable network of a (case, load scale) pair
// through the LRU. The returned network must never be mutated — the
// scenario runner keys its engine cache on the pointer.
func (p *Planner) caseFor(name string, scale float64) (*grid.Network, error) {
	e, err := p.caseEntryFor(name, scale)
	if err != nil {
		return nil, err
	}
	return e.net, nil
}

// caseEntryFor is caseFor returning the LRU entry itself, for callers that
// also use the per-case engines it holds.
func (p *Planner) caseEntryFor(name string, scale float64) (*caseEntry, error) {
	if scale == 0 {
		scale = 1
	}
	key := fmt.Sprintf("%s|%g", name, scale)
	p.mu.Lock()
	e, ok := p.cases[key]
	if ok {
		p.stats.CaseHits++
		p.caseLRU.MoveToFront(e.elem)
	} else {
		p.stats.CaseMisses++
		e = &caseEntry{}
		e.elem = p.caseLRU.PushFront(key)
		p.cases[key] = e
		for p.caseLRU.Len() > p.cfg.MaxCases {
			old := p.caseLRU.Back()
			p.caseLRU.Remove(old)
			delete(p.cases, old.Value.(string))
		}
	}
	p.mu.Unlock()
	e.once.Do(func() {
		n, err := grid.CaseByName(name)
		if err != nil {
			e.err = err
			return
		}
		if scale != 1 {
			n.ScaleLoads(scale)
		}
		e.net = n
	})
	if e.err != nil {
		return nil, e.err
	}
	return e, nil
}

// The Source values a served response reports: where its payload came
// from.
const (
	// SourceComputed marks a freshly computed response.
	SourceComputed = "computed"
	// SourceMemo marks a response served from the in-memory memo.
	SourceMemo = "memo"
	// SourceCoalesced marks a request that joined an identical in-flight
	// computation (single-flight coalescing) and shares its response.
	SourceCoalesced = "coalesced"
	// SourceDisk marks a response loaded from the persistent disk cache
	// (first request for the key in this process, computed by an earlier
	// one).
	SourceDisk = "disk"
)

// memo runs compute under the response memo: the first request with a key
// computes (after a disk-cache probe and, when configured, admission),
// every later identical request returns the stored response — joining the
// in-flight computation (coalesced) or reading the finished entry (memo
// hit). The returned source labels which of the four paths served.
func (p *Planner) memo(key string, compute func() (any, error)) (resp any, elapsed time.Duration, source string, err error) {
	p.mu.Lock()
	e, ok := p.results[key]
	if ok {
		select {
		case <-e.done:
			p.stats.ResultHits++
			source = SourceMemo
		default:
			p.stats.ResultCoalesced++
			source = SourceCoalesced
		}
		p.resLRU.MoveToFront(e.elem)
	} else {
		p.stats.ResultMisses++
		e = &resultEntry{done: make(chan struct{})}
		e.elem = p.resLRU.PushFront(key)
		p.results[key] = e
		for p.resLRU.Len() > p.cfg.MaxResults {
			old := p.resLRU.Back()
			p.resLRU.Remove(old)
			delete(p.results, old.Value.(string))
		}
	}
	p.mu.Unlock()
	first := false
	e.once.Do(func() {
		first = true
		defer close(e.done)
		start := time.Now()
		e.source = SourceComputed
		if data, hit := p.disk.Get(p.diskKey(key)); hit {
			if r, derr := decodeResponse(key, data); derr == nil {
				e.resp, e.source = r, SourceDisk
				e.elapsed = time.Since(start)
				return
			}
			// The envelope key verified but the payload didn't decode (a
			// response-schema change): fall through and recompute; the
			// write-through below overwrites the stale entry.
		}
		if aerr := p.adm.acquire(); aerr != nil {
			// Shed: report the error but never memoize it — the entry is
			// evicted so a retry re-enters the queue instead of replaying
			// the rejection from cache.
			e.err = aerr
			e.elapsed = time.Since(start)
			p.dropResult(key, e)
			return
		}
		func() {
			defer p.adm.release()
			e.resp, e.err = runGuarded(compute)
		}()
		// elapsed includes the admission queue wait: it is the latency a
		// client actually observed for the computed request.
		e.elapsed = time.Since(start)
		if errors.Is(e.err, ErrPanicked) {
			// Like a shed: the leader and its coalesced joiners get the
			// error, and the entry is evicted so the next identical request
			// recomputes instead of replaying a nil response.
			p.dropResult(key, e)
			return
		}
		if e.err == nil {
			if data, merr := json.Marshal(e.resp); merr == nil {
				p.disk.Put(p.diskKey(key), data)
			}
		}
	})
	if first {
		source = e.source
	}
	return e.resp, e.elapsed, source, e.err
}

// runGuarded runs compute, turning a panic into an ErrPanicked error so
// the memo entry it fills never holds a nil response without an error.
// The stack goes to the log: the error a client sees cannot carry it.
func runGuarded(compute func() (any, error)) (resp any, err error) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("planner: computation panicked: %v\n%s", r, debug.Stack())
			resp, err = nil, fmt.Errorf("%w: %v", ErrPanicked, r)
		}
	}()
	return compute()
}

// dropResult evicts e from the memo if it is still the entry stored under
// key (shed results must not be replayed from cache).
func (p *Planner) dropResult(key string, e *resultEntry) {
	p.mu.Lock()
	if cur, ok := p.results[key]; ok && cur == e {
		delete(p.results, key)
		p.resLRU.Remove(e.elem)
	}
	p.mu.Unlock()
}

// gammaKernel versions the pipeline behind persisted gamma| entries. A
// change that alters the bits /v1/gamma serves bumps it, so a cache
// directory written by an older build reads as misses instead of serving
// the older pipeline's bits next to the current ones.
const gammaKernel = "engine-2"

// diskKey extends the bitwise memo key with the case registry content
// hash (a persistent entry computed against different embedded case data
// can never serve) and, for γ entries, the γ kernel version.
func (p *Planner) diskKey(key string) string {
	k := key + "|registry:" + grid.RegistryHash()
	if strings.HasPrefix(key, "gamma|") {
		k += "|kernel:" + gammaKernel
	}
	return k
}

// decodeResponse unmarshals a disk-cache payload into the response type
// its memo-key prefix names.
func decodeResponse(key string, data []byte) (any, error) {
	var v any
	switch {
	case strings.HasPrefix(key, "select|"):
		v = new(SelectResponse)
	case strings.HasPrefix(key, "gamma|"):
		v = new(GammaResponse)
	case strings.HasPrefix(key, "day|"):
		v = new(DaySweepResponse)
	case strings.HasPrefix(key, "placement|"):
		v = new(PlacementResponse)
	default:
		return nil, fmt.Errorf("planner: unknown response kind for key %q", key)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return nil, err
	}
	return v, nil
}

// ---- Select ----------------------------------------------------------------

// SelectRequest asks for one problem-(4) selection, parameterized exactly
// like one mtdscan sweep point: the attacker's knowledge defaults to the
// case's problem-(1) solution at the requested loads (XOld overrides it),
// and the response carries the achieved γ, the η'(δ) curve against the
// request's attack model, and the operational cost.
type SelectRequest struct {
	Case           string  `json:"case"`
	GammaThreshold float64 `json:"gamma_threshold"`
	// MaxGamma falls back to the hardware's best design when the threshold
	// is unreachable (or is the request itself when GammaThreshold is 0).
	MaxGamma  bool    `json:"max_gamma,omitempty"`
	LoadScale float64 `json:"load_scale,omitempty"`
	// XOld optionally fixes the attacker-known reactance vector; every
	// entry must be positive and finite (ErrInvalidReactance otherwise).
	XOld     []float64 `json:"x_old,omitempty"`
	Starts   int       `json:"starts,omitempty"`
	MaxEvals int       `json:"max_evals,omitempty"`
	Seed     int64     `json:"seed,omitempty"`
	Attacks  int       `json:"attacks,omitempty"`
	Sigma    float64   `json:"sigma,omitempty"`
	Alpha    float64   `json:"alpha,omitempty"`
	// GammaBackend names a γ backend ("auto", "exact", "sparse" or
	// "sketch"; empty = auto). Every name is an alias of the exact
	// evaluator; an unknown name is rejected.
	GammaBackend string `json:"gamma_backend,omitempty"`
}

// SelectResponse is a served selection.
type SelectResponse struct {
	Case             string    `json:"case"`
	GammaThreshold   float64   `json:"gamma_threshold"`
	Gamma            float64   `json:"gamma"`
	Deltas           []float64 `json:"deltas"`
	Eta              []float64 `json:"eta"`
	CostIncrease     float64   `json:"cost_increase"`
	BaselineCost     float64   `json:"baseline_cost"`
	CostPerHour      float64   `json:"cost_per_hour"`
	Undetectable     float64   `json:"undetectable"`
	Reactances       []float64 `json:"reactances"`
	MaxGammaFallback bool      `json:"max_gamma_fallback,omitempty"`
	// GammaBackend reports the γ evaluator that served: always "exact".
	GammaBackend string `json:"gamma_backend"`
	// CacheHit reports whether any cache served (memo, coalesced in-flight
	// computation, or disk); Source names which ("computed", "memo",
	// "coalesced" or "disk").
	CacheHit  bool    `json:"cache_hit"`
	Source    string  `json:"source,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (r SelectRequest) key() string {
	return fmt.Sprintf("select|%s|%g|%v|%g|%v|%d|%d|%d|%d|%g|%g|%s",
		r.Case, r.GammaThreshold, r.MaxGamma, r.LoadScale, r.XOld,
		r.Starts, r.MaxEvals, r.Seed, r.Attacks, r.Sigma, r.Alpha, r.GammaBackend)
}

func (r SelectRequest) withDefaults() SelectRequest {
	if r.Starts <= 0 {
		r.Starts = 6
	}
	return r
}

// Select serves one memoized selection request.
func (p *Planner) Select(req SelectRequest) (*SelectResponse, error) {
	req = req.withDefaults()
	gb, err := parseGammaAlias(&req.GammaBackend)
	if err != nil {
		return nil, err
	}
	if err := checkReactances("x_old", req.XOld); err != nil {
		return nil, err
	}
	resp, elapsed, source, err := p.memo(req.key(), func() (any, error) {
		return p.computeSelect(req)
	})
	if err != nil {
		return nil, err
	}
	p.countGammaServed(gb)
	out := *(resp.(*SelectResponse))
	out.CacheHit = source != SourceComputed
	out.Source = source
	out.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
	return &out, nil
}

func (p *Planner) computeSelect(req SelectRequest) (*SelectResponse, error) {
	n, err := p.caseFor(req.Case, req.LoadScale)
	if err != nil {
		return nil, err
	}
	effCfg := core.EffectivenessConfig{
		NumAttacks: req.Attacks, Sigma: req.Sigma, Alpha: req.Alpha, Seed: req.Seed,
	}
	if len(req.XOld) > 0 {
		return p.selectExplicitXOld(req, n, effCfg)
	}
	spec := scenario.Spec{
		Kind:            scenario.GammaSweep,
		Net:             n,
		Backend:         p.cfg.Backend,
		GammaGrid:       []float64{req.GammaThreshold},
		CapWithMaxGamma: req.MaxGamma,
		SelectStarts:    req.Starts,
		MaxEvals:        req.MaxEvals,
		Seed:            req.Seed,
		OPFStarts:       req.Starts,
		OPFMaxEvals:     req.MaxEvals,
		OPFSeed:         req.Seed,
		Effectiveness:   effCfg,
		Parallelism:     p.cfg.Parallelism,
	}
	if req.MaxGamma && req.GammaThreshold <= 0 {
		// A pure max-γ request: an unreachable sentinel threshold forces
		// the sweep straight into its max-γ cap.
		spec.GammaGrid = []float64{1e9}
	}
	res, err := p.runner.Run(spec)
	if err != nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		if res.Exhausted && !req.MaxGamma {
			return nil, fmt.Errorf("%w: γ_th=%g on %s", ErrUnreachable, req.GammaThreshold, req.Case)
		}
		return nil, fmt.Errorf("planner: no operable design on %s (max-γ corner infeasible)", req.Case)
	}
	row := res.Rows[len(res.Rows)-1]
	return &SelectResponse{
		Case:             req.Case,
		GammaThreshold:   req.GammaThreshold,
		Gamma:            row.Gamma,
		Deltas:           row.Deltas,
		Eta:              row.Eta,
		CostIncrease:     row.CostIncrease,
		BaselineCost:     row.BaselineCost,
		CostPerHour:      row.MTDCost,
		Undetectable:     row.Undetectable,
		Reactances:       row.Reactances,
		MaxGammaFallback: req.MaxGamma && row.GammaTarget == 0,
		GammaBackend:     core.ExactGamma.String(),
	}, nil
}

// parseGammaAlias parses a request's γ-backend name before the memo, so a
// bad value never occupies an LRU slot, and rewrites it to "exact": every
// name is an alias of the exact evaluator, so all spellings share one key.
func parseGammaAlias(name *string) (core.GammaBackend, error) {
	gb, err := subspace.ParseGammaBackend(*name)
	if err != nil {
		return gb, fmt.Errorf("planner: %w", err)
	}
	*name = core.ExactGamma.String()
	return gb, nil
}

// countGammaServed records the γ-backend name of an answered request.
func (p *Planner) countGammaServed(gb core.GammaBackend) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch gb {
	case core.SparseGamma:
		p.stats.GammaSparseServed++
	case core.SketchGamma:
		p.stats.GammaSketchServed++
	default:
		p.stats.GammaExactServed++
	}
}

// selectExplicitXOld serves a request whose attacker knowledge is given:
// the planner works directly on the shared engines (the setpoint hash —
// case, scale, x_old — keys the γ engine, the dispatch engine comes from
// the runner's cache).
func (p *Planner) selectExplicitXOld(req SelectRequest, n *grid.Network, effCfg core.EffectivenessConfig) (*SelectResponse, error) {
	if len(req.XOld) != n.L() {
		return nil, fmt.Errorf("planner: x_old has %d entries, case %s has %d branches", len(req.XOld), req.Case, n.L())
	}
	eng, err := p.runner.DispatchEngine(n, p.cfg.Backend)
	if err != nil {
		return nil, err
	}
	baseline, err := opf.SolveDFACTSEngine(eng, opf.DFACTSConfig{
		Starts: req.Starts, MaxEvals: req.MaxEvals, Seed: req.Seed, Parallelism: p.cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	engines := core.NewEnginesShared(n, req.XOld, eng)
	selCfg := core.SelectConfig{
		GammaThreshold: req.GammaThreshold,
		Starts:         req.Starts,
		MaxEvals:       req.MaxEvals,
		Seed:           req.Seed,
		BaselineCost:   baseline.CostPerHour,
		Parallelism:    p.cfg.Parallelism,
	}
	sel, err := core.SelectMTDWith(engines, n, req.XOld, selCfg)
	fellBack := false
	if errors.Is(err, core.ErrConstraintUnreachable) || (req.MaxGamma && req.GammaThreshold <= 0) {
		if !req.MaxGamma {
			return nil, fmt.Errorf("%w: γ_th=%g on %s", ErrUnreachable, req.GammaThreshold, req.Case)
		}
		fellBack = err != nil
		sel, err = core.MaxGammaWith(engines, n, req.XOld, core.MaxGammaConfig{
			Starts: req.Starts, MaxEvals: req.MaxEvals, Seed: req.Seed,
			BaselineCost: baseline.CostPerHour, Parallelism: p.cfg.Parallelism,
		})
	}
	if err != nil {
		return nil, err
	}
	zOld, err := core.OperatingMeasurements(n, req.XOld)
	if err != nil {
		return nil, err
	}
	attacks, err := core.SampleAttacks(n, req.XOld, zOld, effCfg)
	if err != nil {
		return nil, err
	}
	// The runner's shared per-network estimator cache memoizes the post-MTD
	// QR across requests against this case (and rank-structured-rebuilds it
	// on a miss) — the network pointer comes from the planner's case LRU,
	// so the key is effectively (case, load scale, x_new).
	effCfg.Estimators = p.runner.EstimatorCache(n)
	eff, err := core.EvaluateAttacks(n, attacks, sel.Reactances, effCfg)
	if err != nil {
		return nil, err
	}
	return &SelectResponse{
		Case:             req.Case,
		GammaThreshold:   req.GammaThreshold,
		Gamma:            eff.Gamma,
		Deltas:           eff.Deltas,
		Eta:              eff.Eta,
		CostIncrease:     sel.CostIncrease,
		BaselineCost:     sel.BaselineCost,
		CostPerHour:      sel.OPF.CostPerHour,
		Undetectable:     eff.UndetectableFraction,
		Reactances:       sel.Reactances,
		MaxGammaFallback: fellBack,
		GammaBackend:     core.ExactGamma.String(),
	}, nil
}

// ---- Gamma -----------------------------------------------------------------

// GammaRequest asks for the subspace separation between two reactance
// settings of a case (XOld empty = the case's nominal reactances); every
// entry must be positive and finite. The served γ is core.Gamma's: bitwise
// the reference principal-angle pipeline below grid.SparseThreshold buses
// or under -backend dense; otherwise the rank-|S| update kernel's answer
// from an s×s problem over the branches whose reactance differs from
// x_old, within 1e-9 of the reference. Requests without XOld are answered
// by the case's cached nominal-side evaluator, which gives the same bits
// and keeps the x_old preparation out of the request.
type GammaRequest struct {
	Case string    `json:"case"`
	XOld []float64 `json:"x_old,omitempty"`
	XNew []float64 `json:"x_new"`
}

// GammaResponse carries γ(H(x_old), H(x_new)).
type GammaResponse struct {
	Case      string  `json:"case"`
	Gamma     float64 `json:"gamma"`
	CacheHit  bool    `json:"cache_hit"`
	Source    string  `json:"source,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (r GammaRequest) key() string {
	return fmt.Sprintf("gamma|%s|%v|%v", r.Case, r.XOld, r.XNew)
}

// Gamma serves one memoized γ evaluation. Reactances that are not
// positive and finite are rejected with ErrInvalidReactance before the
// memo.
func (p *Planner) Gamma(req GammaRequest) (*GammaResponse, error) {
	if err := checkReactances("x_old", req.XOld); err != nil {
		return nil, err
	}
	if err := checkReactances("x_new", req.XNew); err != nil {
		return nil, err
	}
	resp, elapsed, source, err := p.memo(req.key(), func() (any, error) {
		ce, err := p.caseEntryFor(req.Case, 1)
		if err != nil {
			return nil, err
		}
		n := ce.net
		if (len(req.XOld) != 0 && len(req.XOld) != n.L()) || len(req.XNew) != n.L() {
			return nil, fmt.Errorf("planner: reactance vectors must have %d entries for case %s", n.L(), req.Case)
		}
		var g float64
		if len(req.XOld) == 0 {
			g = ce.nominalGamma().GammaExact(req.XNew)
		} else {
			g = core.Gamma(n, req.XOld, req.XNew)
		}
		return &GammaResponse{Case: req.Case, Gamma: g}, nil
	})
	if err != nil {
		return nil, err
	}
	out := *(resp.(*GammaResponse))
	out.CacheHit = source != SourceComputed
	out.Source = source
	out.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
	return &out, nil
}

// ---- Day sweep -------------------------------------------------------------

// DaySweepRequest asks for a (subset of a) Section VII-C operating day.
// The defaults are service-sized: quick tuning budgets on three
// representative hours; pass explicit fields for the full protocol.
type DaySweepRequest struct {
	Case        string  `json:"case"`
	Hours       []int   `json:"hours,omitempty"`
	PeakLoadMW  float64 `json:"peak_load_mw,omitempty"`
	TargetDelta float64 `json:"target_delta,omitempty"`
	TargetEta   float64 `json:"target_eta,omitempty"`
	Iterations  int     `json:"iterations,omitempty"`
	Attacks     int     `json:"attacks,omitempty"`
	Starts      int     `json:"starts,omitempty"`
	OPFStarts   int     `json:"opf_starts,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
}

// DaySweepHour is one served hour.
type DaySweepHour struct {
	Hour         int     `json:"hour"`
	TotalLoadMW  float64 `json:"total_load_mw"`
	BaselineCost float64 `json:"baseline_cost"`
	MTDCost      float64 `json:"mtd_cost"`
	CostIncrease float64 `json:"cost_increase"`
	Gamma        float64 `json:"gamma"`
	Eta          float64 `json:"eta"`
}

// DaySweepResponse is a served day sweep.
type DaySweepResponse struct {
	Case      string         `json:"case"`
	Hours     []DaySweepHour `json:"hours"`
	CacheHit  bool           `json:"cache_hit"`
	Source    string         `json:"source,omitempty"`
	ElapsedMS float64        `json:"elapsed_ms"`
}

func (r DaySweepRequest) withDefaults() DaySweepRequest {
	if len(r.Hours) == 0 {
		r.Hours = []int{2, 8, 17} // trough, shoulder, peak
	}
	if r.TargetDelta <= 0 {
		r.TargetDelta = 0.9
	}
	if r.TargetEta <= 0 {
		r.TargetEta = 0.9
	}
	if r.Iterations <= 0 {
		r.Iterations = 2
	}
	if r.Attacks <= 0 {
		r.Attacks = 100
	}
	if r.Starts <= 0 {
		r.Starts = 2
	}
	if r.OPFStarts <= 0 {
		r.OPFStarts = 3
	}
	return r
}

// DaySweep serves one memoized day sweep.
func (p *Planner) DaySweep(req DaySweepRequest) (*DaySweepResponse, error) {
	req = req.withDefaults()
	key := fmt.Sprintf("day|%s|%v|%g|%g|%g|%d|%d|%d|%d|%d",
		req.Case, req.Hours, req.PeakLoadMW, req.TargetDelta, req.TargetEta,
		req.Iterations, req.Attacks, req.Starts, req.OPFStarts, req.Seed)
	resp, elapsed, source, err := p.memo(key, func() (any, error) {
		n, err := p.caseFor(req.Case, 1)
		if err != nil {
			return nil, err
		}
		res, err := p.runner.Run(scenario.Spec{
			Kind:       scenario.DaySweep,
			Net:        n,
			Backend:    p.cfg.Backend,
			Hours:      req.Hours,
			PeakLoadMW: req.PeakLoadMW,
			Warmup:     true,
			Tune: core.TuneConfig{
				TargetDelta: req.TargetDelta,
				TargetEta:   req.TargetEta,
				Iterations:  req.Iterations,
				Effectiveness: core.EffectivenessConfig{
					NumAttacks: req.Attacks,
				},
				Select: core.SelectConfig{Starts: req.Starts, Parallelism: p.cfg.Parallelism},
			},
			OPFStarts:   req.OPFStarts,
			Seed:        req.Seed,
			Parallelism: p.cfg.Parallelism,
		})
		if err != nil {
			return nil, err
		}
		out := &DaySweepResponse{Case: req.Case}
		for _, r := range res.Rows {
			out.Hours = append(out.Hours, DaySweepHour{
				Hour:         r.Hour,
				TotalLoadMW:  r.TotalLoadMW,
				BaselineCost: r.BaselineCost,
				MTDCost:      r.MTDCost,
				CostIncrease: r.CostIncrease,
				Gamma:        r.Gamma,
				Eta:          r.Eta[0],
			})
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	out := *(resp.(*DaySweepResponse))
	out.CacheHit = source != SourceComputed
	out.Source = source
	out.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
	return &out, nil
}

// ---- Placement -------------------------------------------------------------

// PlacementRequest asks for a greedy D-FACTS placement study.
type PlacementRequest struct {
	Case    string `json:"case"`
	Devices int    `json:"devices,omitempty"`
	Pool    []int  `json:"pool,omitempty"`
	// AllBranches widens the pool to every branch of the case.
	AllBranches bool `json:"all_branches,omitempty"`
	// GammaBackend names a γ backend, as in SelectRequest.
	GammaBackend string `json:"gamma_backend,omitempty"`
}

// PlacementRound is one greedy round's deployment.
type PlacementRound struct {
	Devices      []int   `json:"devices"`
	Gamma        float64 `json:"gamma"`
	ProbeGamma   float64 `json:"probe_gamma,omitempty"`
	CostIncrease float64 `json:"cost_increase,omitempty"`
	CostKnown    bool    `json:"cost_known"`
}

// PlacementResponse is a served placement study.
type PlacementResponse struct {
	Case      string           `json:"case"`
	Rounds    []PlacementRound `json:"rounds"`
	CacheHit  bool             `json:"cache_hit"`
	Source    string           `json:"source,omitempty"`
	ElapsedMS float64          `json:"elapsed_ms"`
}

// Placement serves one memoized placement study.
func (p *Planner) Placement(req PlacementRequest) (*PlacementResponse, error) {
	gb, err := parseGammaAlias(&req.GammaBackend)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("placement|%s|%d|%v|%v|%s", req.Case, req.Devices, req.Pool, req.AllBranches, req.GammaBackend)
	resp, elapsed, source, err := p.memo(key, func() (any, error) {
		n, err := p.caseFor(req.Case, 1)
		if err != nil {
			return nil, err
		}
		res, err := p.runner.Run(scenario.Spec{
			Kind:    scenario.Placement,
			Net:     n,
			Backend: p.cfg.Backend,
			Placement: scenario.PlacementSpec{
				Devices: req.Devices, Pool: req.Pool, AllBranches: req.AllBranches,
			},
			Parallelism: p.cfg.Parallelism,
		})
		if err != nil {
			return nil, err
		}
		out := &PlacementResponse{Case: req.Case}
		for _, r := range res.Rows {
			out.Rounds = append(out.Rounds, PlacementRound{
				Devices:      r.Devices,
				Gamma:        r.Gamma,
				ProbeGamma:   r.ProbeGamma,
				CostIncrease: r.CostIncrease,
				CostKnown:    r.CostKnown,
			})
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	p.countGammaServed(gb)
	out := *(resp.(*PlacementResponse))
	out.CacheHit = source != SourceComputed
	out.Source = source
	out.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
	return &out, nil
}
