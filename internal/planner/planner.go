// Package planner is the long-running selection front-end of the
// reproduction: a concurrency-safe service object answering MTD selection,
// γ-evaluation, day-sweep and placement requests against the embedded case
// registry. It amortizes everything amortizable across requests:
//
//   - an LRU of resolved cases (one immutable network per (case, load
//     scale) pair), whose dispatch-OPF engines the scenario runner caches
//     by network pointer — so the factorizer workspaces, LP skeletons,
//     seed bases and dispatch-solve memos survive from request to request;
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
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"gridmtd/internal/core"
	"gridmtd/internal/grid"
	"gridmtd/internal/lp"
	"gridmtd/internal/memo"
	"gridmtd/internal/metrics"
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

// MaxAttacks bounds the attacks field of select and day-sweep requests:
// ten times the paper's 1,000-attack protocol. Each sampled attack holds
// a measurement-length vector (about 4 KB on ieee118), and running out of
// memory is a fatal runtime error that kills the daemon rather than
// failing the request.
const MaxAttacks = 10000

// ErrTooManyAttacks is returned for a request whose attacks field exceeds
// MaxAttacks. Like ErrInvalidReactance it is raised before the memo.
var ErrTooManyAttacks = fmt.Errorf("planner: attacks must be at most %d", MaxAttacks)

// checkAttacks rejects an attack count above MaxAttacks.
func checkAttacks(n int) error {
	if n > MaxAttacks {
		return fmt.Errorf("%w: got %d", ErrTooManyAttacks, n)
	}
	return nil
}

// Bounds on the other work budgets of select and day-sweep requests, far
// above the service defaults and the paper's protocol. A request past one
// gets ErrBudgetTooLarge before the memo, as an attack count past
// MaxAttacks gets ErrTooManyAttacks.
const (
	// MaxStarts bounds select starts and day-sweep starts and opf_starts.
	MaxStarts = 64
	// MaxEvals bounds select max_evals.
	MaxEvals = 100000
	// MaxIterations bounds day-sweep iterations (γ_th tuning rounds).
	MaxIterations = 100
	// MaxHours bounds the number of day-sweep hours: one operating day.
	MaxHours = 24
)

// ErrBudgetTooLarge is returned for a request whose starts, max_evals,
// iterations, opf_starts or number of hours exceeds its bound above.
var ErrBudgetTooLarge = errors.New("planner: request budget too large")

// checkBudget rejects a budget field above max.
func checkBudget(field string, v, max int) error {
	if v > max {
		return fmt.Errorf("%w: %s = %d, at most %d", ErrBudgetTooLarge, field, v, max)
	}
	return nil
}

// ErrInvalidLoad is returned for a select load_scale that is negative,
// NaN or infinite, or a day-sweep peak_load_mw that is negative, NaN or
// infinite (0 asks for the default in both). Like ErrInvalidReactance it
// is raised before the memo and the case cache.
var ErrInvalidLoad = errors.New("planner: load must be a positive finite number")

// checkLoad rejects a negative or non-finite load field; 0 is unset.
func checkLoad(field string, v float64) error {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: %s = %v", ErrInvalidLoad, field, v)
	}
	return nil
}

// ErrOutOfDomain is returned for a request field outside its domain: an
// alpha outside (0, 1), a sigma that is negative or not finite, or a
// negative starts, attacks, max_evals, iterations, opf_starts or devices
// (0 asks for the default in each). Like ErrInvalidLoad it is raised
// before the memo, so a bad value neither computes nor takes a memo key.
var ErrOutOfDomain = errors.New("planner: request field out of domain")

// checkCount rejects a negative count field; 0 is unset.
func checkCount(field string, v int) error {
	if v < 0 {
		return fmt.Errorf("%w: %s = %d, must be at least 0", ErrOutOfDomain, field, v)
	}
	return nil
}

// checkStatistics rejects a sigma that is not 0 or a positive finite
// number, and an alpha that is not 0 or in (0, 1).
func checkStatistics(sigma, alpha float64) error {
	var errs []error
	if !(sigma == 0 || sigma > 0 && !math.IsInf(sigma, 1)) {
		errs = append(errs, fmt.Errorf("%w: sigma = %v, must be positive and finite", ErrOutOfDomain, sigma))
	}
	if !(alpha == 0 || alpha > 0 && alpha < 1) {
		errs = append(errs, fmt.Errorf("%w: alpha = %v, must be in (0, 1)", ErrOutOfDomain, alpha))
	}
	return errors.Join(errs...)
}

// Config tunes a Planner.
type Config struct {
	// MaxCases bounds the case LRU (default 8 (case, scale) entries).
	MaxCases int
	// MaxResults bounds the response memo LRU (default 256).
	MaxResults int
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
	// memo key (requestKey: kind|case|fields, every float as the 16 hex
	// digits of its bits) plus the case registry content hash, so stale
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
	LP lp.RevisedStats `json:"lp"`
	// Estimators is the process-wide estimator snapshot
	// (core.GlobalEstimatorCacheStats): Misses and FullQRs both count the
	// post-MTD estimators built for attack evaluation on large cases (each
	// a full QR). Hits and FastBuilds always read 0; the keys stay so the
	// block keeps its shape.
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
// and this one (field-wise s − since; the disk cache's gauges are copied
// from the newer snapshot). The process-global counters served by
// /v1/stats are cumulative; tests, CI and dashboards diff two snapshots
// with it instead of racing absolute values.
func (s Stats) Delta(since Stats) Stats { return metrics.Delta(s, since) }

// Planner is the long-running selection service. Safe for concurrent use.
type Planner struct {
	cfg     Config
	runner  *scenario.Runner
	adm     *admission
	disk    *diskcache.Cache
	cases   *memo.LRU[string, *caseEntry]
	results *memo.LRU[string, stored]

	mu    sync.Mutex
	stats Stats // the γ-backend counters; Stats fills in the rest
}

// caseEntry is one resolved (case, load scale) pair of the case table.
type caseEntry struct {
	net *grid.Network

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

// New builds a planner.
func New(cfg Config) *Planner {
	cfg = cfg.withDefaults()
	return &Planner{
		cfg:    cfg,
		runner: scenario.NewRunner(),
		adm:    newAdmission(cfg.MaxInflight, cfg.QueueDepth),
		disk:   cfg.Disk,
		cases:  memo.New[string, *caseEntry](cfg.MaxCases, nil),
		// Shed and panicked computations are not kept: an identical retry
		// re-enters the queue or computes afresh instead of replaying the
		// failure from the memo.
		results: memo.New[string, stored](cfg.MaxResults, func(err error) bool {
			return errors.Is(err, ErrOverloaded) || errors.Is(err, ErrPanicked)
		}),
	}
}

// Stats returns a snapshot of the cache counters plus the process-wide
// revised-simplex counters.
func (p *Planner) Stats() Stats {
	p.mu.Lock()
	s := p.stats
	p.mu.Unlock()
	s.CaseMisses = p.cases.Count(memo.Created)
	s.CaseHits = p.cases.Count(memo.InFlight) + p.cases.Count(memo.Done)
	s.ResultMisses = p.results.Count(memo.Created)
	s.ResultCoalesced = p.results.Count(memo.InFlight)
	s.ResultHits = p.results.Count(memo.Done)
	s.LP = lp.GlobalRevisedStats()
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
	e, _, err := p.cases.Do(fmt.Sprintf("%s|%g", name, scale), func() (*caseEntry, error) {
		n, err := grid.CaseByName(name)
		if err != nil {
			return nil, err
		}
		if scale != 1 {
			n.ScaleLoads(scale)
		}
		return &caseEntry{net: n}, nil
	})
	return e, err
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

// Served reports how a response was served. Every response type embeds
// it last, so its fields close the JSON object, and each caller's copy is
// stamped with its own values.
type Served struct {
	// CacheHit reports whether any cache served (memo, coalesced in-flight
	// computation, or disk); Source names which ("computed", "memo",
	// "coalesced" or "disk").
	CacheHit  bool    `json:"cache_hit"`
	Source    string  `json:"source,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func (s *Served) served() *Served { return s }

// response is one of the four endpoint response types.
type response interface{ served() *Served }

// stored is a response memo entry: the response as computed or loaded
// from disk, how long that took, and where it came from.
type stored struct {
	resp    response
	elapsed time.Duration
	source  string
}

// serve answers one request through the response memo and returns the
// caller's own copy of the response, stamped with how it was served. A
// disk-cache payload decodes into the endpoint's response type R.
func serve[R any, P interface {
	*R
	response
}](p *Planner, key string, compute func() (P, error)) (P, error) {
	st, err := p.memoized(key, func() response { return P(new(R)) }, func() (response, error) { return compute() })
	if err != nil {
		return nil, err
	}
	out := *st.resp.(P)
	s := P(&out).served()
	s.CacheHit = st.source != SourceComputed
	s.Source = st.source
	s.ElapsedMS = float64(st.elapsed.Microseconds()) / 1e3
	return &out, nil
}

// memoized runs compute under the response memo: the first request with a
// key probes the disk cache (decoding a hit into fresh()), then computes
// under admission control and writes the response through to disk; every
// later identical request joins the in-flight computation (coalesced) or
// reads the finished entry (memo hit). The returned entry's source labels
// which of the four paths served.
func (p *Planner) memoized(key string, fresh func() response, compute func() (response, error)) (stored, error) {
	st, o, err := p.results.Do(key, func() (stored, error) {
		start := time.Now()
		var dk string // the disk key, built only when a disk cache is attached
		if p.disk != nil {
			dk = p.diskKey(key)
		}
		if data, hit := p.disk.Get(dk); hit {
			r := fresh()
			if decodeResponse(key, data, r) == nil {
				return stored{r, time.Since(start), SourceDisk}, nil
			}
			// The envelope key verified but the payload didn't decode (a
			// response-schema change) or names another case (a null or
			// empty payload): fall through and recompute; the
			// write-through below overwrites the stale entry.
		}
		if err := p.adm.acquire(); err != nil {
			return stored{}, err
		}
		resp, err := runGuarded(compute)
		p.adm.release()
		if err != nil {
			return stored{}, err
		}
		// elapsed includes the admission queue wait: it is the latency a
		// client actually observed for the computed request.
		st := stored{resp, time.Since(start), SourceComputed}
		if p.disk != nil {
			if data, merr := json.Marshal(resp); merr == nil {
				p.disk.Put(dk, data)
			}
		}
		return st, nil
	})
	switch o {
	case memo.InFlight:
		st.source = SourceCoalesced
	case memo.Done:
		st.source = SourceMemo
	}
	return st, err
}

// runGuarded runs compute, turning a panic into an ErrPanicked error so
// the leader and its coalesced joiners get an error instead of a nil
// response. The stack goes to the log: the error a client sees cannot
// carry it.
func runGuarded(compute func() (response, error)) (resp response, err error) {
	defer func() {
		if r := recover(); r != nil {
			log.Printf("planner: computation panicked: %v\n%s", r, debug.Stack())
			resp, err = nil, fmt.Errorf("%w: %v", ErrPanicked, r)
		}
	}()
	return compute()
}

// pipelineVersion versions the computation behind every persisted entry
// (select, gamma, day-sweep and placement alike). A change that alters
// the bits any endpoint serves bumps it, so a cache directory written by
// an older build reads as misses instead of serving the older pipeline's
// bits next to the current ones.
const pipelineVersion = "engine-5"

// diskKey extends the memo key (requestKey: kind|case|fields, every float
// as the 16 hex digits of its bits) with the case registry content hash (a
// persistent entry computed against different embedded case data can
// never serve) and the pipeline version.
func (p *Planner) diskKey(key string) string {
	return key + "|registry:" + grid.RegistryHash() + "|pipeline:" + pipelineVersion
}

// requestKey is the memo key of one request: its kind and fields joined by
// '|', so field 1 is the case (decodeResponse reads it there). A float is
// the 16 hex digits of its IEEE-754 bits and a float slice those digits
// back to back, so two requests share a key exactly when every field is
// bitwise equal, and a nil slice keys like an empty one. Strings, bools,
// ints and int slices (each int closed by ',') are appended as text. Hex,
// not raw bits, keeps the key valid UTF-8 for the disk envelope's JSON
// string.
func requestKey(kind string, fields ...any) string {
	b := append(make([]byte, 0, 64), kind...)
	for _, f := range fields {
		b = append(b, '|')
		switch v := f.(type) {
		case string:
			b = append(b, v...)
		case bool:
			b = strconv.AppendBool(b, v)
		case int:
			b = strconv.AppendInt(b, int64(v), 10)
		case int64:
			b = strconv.AppendInt(b, v, 10)
		case float64:
			b = appendBits(b, v)
		case []float64:
			b = appendBits(slices.Grow(b, 16*len(v)), v...)
		case []int:
			for _, x := range v {
				b = append(strconv.AppendInt(b, int64(x), 10), ',')
			}
		default:
			panic("planner: requestKey field of unsupported type")
		}
	}
	return string(b)
}

// appendBits appends the IEEE-754 bits of each x as 16 lower-case hex
// digits.
func appendBits(b []byte, xs ...float64) []byte {
	for _, x := range xs {
		var digits [16]byte
		u := math.Float64bits(x)
		for i := 15; i >= 0; i, u = i-1, u>>4 {
			digits[i] = "0123456789abcdef"[u&0xf]
		}
		b = append(b, digits[:]...)
	}
	return b
}

// decodeResponse unmarshals a disk-cache payload into v. A payload whose
// case is not the key's (a null or empty payload decodes to case "") is
// rejected, so it is recomputed instead of served.
func decodeResponse(key string, data []byte, v response) error {
	if err := json.Unmarshal(data, v); err != nil {
		return err
	}
	var got struct{ Case string }
	_ = json.Unmarshal(data, &got) // cannot fail: data decoded into a struct above
	if keyCase := strings.Split(key, "|")[1]; got.Case != keyCase {
		return fmt.Errorf("planner: cached payload is for case %q, key names %q", got.Case, keyCase)
	}
	return nil
}

// ---- Select ----------------------------------------------------------------

// SelectRequest asks for one problem-(4) selection, parameterized exactly
// like one mtdscan sweep point: every request runs as one scenario γ sweep.
// The attacker's knowledge defaults to the case's problem-(1) solution at
// the requested loads (XOld overrides it), and the response carries the
// achieved γ, the η'(δ) curve against the request's attack model, and the
// operational cost.
type SelectRequest struct {
	Case           string  `json:"case"`
	GammaThreshold float64 `json:"gamma_threshold"`
	// MaxGamma falls back to the hardware's best design when the threshold
	// is unreachable. With GammaThreshold ≤ 0 that design is the request
	// itself (a pure max-γ request), and no problem-(4) search runs.
	MaxGamma  bool    `json:"max_gamma,omitempty"`
	LoadScale float64 `json:"load_scale,omitempty"`
	// XOld optionally fixes the attacker-known reactance vector in place of
	// the problem-(1) reactances. It needs one entry per branch, each
	// positive and finite (ErrInvalidReactance otherwise); a wrong length is
	// rejected before any dispatch LP runs.
	XOld   []float64 `json:"x_old,omitempty"`
	Starts int       `json:"starts,omitempty"`
	// MaxEvals bounds the evaluations of each local search: the
	// problem-(1) and problem-(4) searches and the max-γ search alike
	// (0 keeps each search's default).
	MaxEvals int     `json:"max_evals,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Attacks  int     `json:"attacks,omitempty"`
	Sigma    float64 `json:"sigma,omitempty"`
	Alpha    float64 `json:"alpha,omitempty"`
	// GammaBackend names a γ backend ("auto", "exact", "sparse" or
	// "sketch"; empty = auto). Every name is an alias of the exact
	// evaluator; an unknown name is rejected.
	GammaBackend string `json:"gamma_backend,omitempty"`
}

// SelectResponse is a served selection.
type SelectResponse struct {
	Case           string    `json:"case"`
	GammaThreshold float64   `json:"gamma_threshold"`
	Gamma          float64   `json:"gamma"`
	Deltas         []float64 `json:"deltas"`
	Eta            []float64 `json:"eta"`
	CostIncrease   float64   `json:"cost_increase"`
	BaselineCost   float64   `json:"baseline_cost"`
	CostPerHour    float64   `json:"cost_per_hour"`
	Undetectable   float64   `json:"undetectable"`
	Reactances     []float64 `json:"reactances"`
	// MaxGammaFallback reports that a positive GammaThreshold was out of
	// reach and the max-γ design served instead. A pure max-γ request
	// (GammaThreshold ≤ 0) never sets it.
	MaxGammaFallback bool `json:"max_gamma_fallback,omitempty"`
	// GammaBackend reports the γ evaluator that served: always "exact".
	GammaBackend string `json:"gamma_backend"`
	Served
}

func (r SelectRequest) key() string {
	return requestKey("select", r.Case, r.GammaThreshold, r.MaxGamma, r.LoadScale, r.XOld,
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
	gb, err := parseGammaAlias(&req.GammaBackend)
	if err != nil {
		return nil, err
	}
	if err := checkReactances("x_old", req.XOld); err != nil {
		return nil, err
	}
	if err := errors.Join(checkAttacks(req.Attacks), checkLoad("load_scale", req.LoadScale),
		checkBudget("starts", req.Starts, MaxStarts), checkBudget("max_evals", req.MaxEvals, MaxEvals),
		checkCount("starts", req.Starts), checkCount("attacks", req.Attacks), checkCount("max_evals", req.MaxEvals),
		checkStatistics(req.Sigma, req.Alpha)); err != nil {
		return nil, err
	}
	req = req.withDefaults()
	out, err := serve(p, req.key(), func() (*SelectResponse, error) {
		return p.computeSelect(req)
	})
	if err != nil {
		return nil, err
	}
	p.countGammaServed(gb)
	return out, nil
}

func (p *Planner) computeSelect(req SelectRequest) (*SelectResponse, error) {
	n, err := p.caseFor(req.Case, req.LoadScale)
	if err != nil {
		return nil, err
	}
	// A pure max-γ request (γ_th ≤ 0) skips problem (4): its grid is empty
	// and the max-γ cap is its one row.
	pure := req.MaxGamma && req.GammaThreshold <= 0
	gammaGrid := []float64{req.GammaThreshold}
	if pure {
		gammaGrid = nil
	}
	res, err := p.runner.Run(scenario.Spec{
		Kind:            scenario.GammaSweep,
		Net:             n,
		XOld:            req.XOld,
		GammaGrid:       gammaGrid,
		CapWithMaxGamma: req.MaxGamma,
		SelectStarts:    req.Starts,
		MaxEvals:        req.MaxEvals,
		Seed:            req.Seed,
		OPFStarts:       req.Starts,
		OPFMaxEvals:     req.MaxEvals,
		OPFSeed:         req.Seed,
		Effectiveness: core.EffectivenessConfig{
			NumAttacks: req.Attacks, Sigma: req.Sigma, Alpha: req.Alpha, Seed: req.Seed,
		},
	})
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
		MaxGammaFallback: req.MaxGamma && !pure && row.GammaTarget == 0,
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
	Case  string  `json:"case"`
	Gamma float64 `json:"gamma"`
	Served
}

func (r GammaRequest) key() string { return requestKey("gamma", r.Case, r.XOld, r.XNew) }

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
	return serve(p, req.key(), func() (*GammaResponse, error) {
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
			g = ce.nominalGamma().Gamma(req.XNew)
		} else {
			g = core.Gamma(n, req.XOld, req.XNew)
		}
		return &GammaResponse{Case: req.Case, Gamma: g}, nil
	})
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
	Case  string         `json:"case"`
	Hours []DaySweepHour `json:"hours"`
	Served
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

func (r DaySweepRequest) key() string {
	return requestKey("day", r.Case, r.Hours, r.PeakLoadMW, r.TargetDelta, r.TargetEta,
		r.Iterations, r.Attacks, r.Starts, r.OPFStarts, r.Seed)
}

// DaySweep serves one memoized day sweep.
func (p *Planner) DaySweep(req DaySweepRequest) (*DaySweepResponse, error) {
	if err := errors.Join(checkAttacks(req.Attacks), checkLoad("peak_load_mw", req.PeakLoadMW),
		checkBudget("iterations", req.Iterations, MaxIterations), checkBudget("starts", req.Starts, MaxStarts),
		checkBudget("opf_starts", req.OPFStarts, MaxStarts), checkBudget("hours", len(req.Hours), MaxHours),
		checkCount("iterations", req.Iterations), checkCount("attacks", req.Attacks),
		checkCount("starts", req.Starts), checkCount("opf_starts", req.OPFStarts)); err != nil {
		return nil, err
	}
	req = req.withDefaults()
	return serve(p, req.key(), func() (*DaySweepResponse, error) {
		n, err := p.caseFor(req.Case, 1)
		if err != nil {
			return nil, err
		}
		res, err := p.runner.Run(scenario.Spec{
			Kind:       scenario.DaySweep,
			Net:        n,
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
				Select: core.SelectConfig{Starts: req.Starts},
			},
			OPFStarts: req.OPFStarts,
			Seed:      req.Seed,
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
	Case   string           `json:"case"`
	Rounds []PlacementRound `json:"rounds"`
	Served
}

func (r PlacementRequest) key() string {
	return requestKey("placement", r.Case, r.Devices, r.Pool, r.AllBranches, r.GammaBackend)
}

// Placement serves one memoized placement study.
func (p *Planner) Placement(req PlacementRequest) (*PlacementResponse, error) {
	gb, err := parseGammaAlias(&req.GammaBackend)
	if err != nil {
		return nil, err
	}
	if err := checkCount("devices", req.Devices); err != nil {
		return nil, err
	}
	out, err := serve(p, req.key(), func() (*PlacementResponse, error) {
		n, err := p.caseFor(req.Case, 1)
		if err != nil {
			return nil, err
		}
		res, err := p.runner.Run(scenario.Spec{
			Kind: scenario.Placement,
			Net:  n,
			Placement: scenario.PlacementSpec{
				Devices: req.Devices, Pool: req.Pool, AllBranches: req.AllBranches,
			},
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
	return out, nil
}
