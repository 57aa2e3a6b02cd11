package lp

import (
	"errors"
	"math"
	"sort"

	"gridmtd/internal/mat"
)

// errWarmFallback is warmSolve's internal "abandon this attempt" signal:
// Solve then tries the crash basis and, failing that, the flat tableau.
// It never escapes Solve: the only warm error surfaced to callers is a
// certified ErrInfeasible.
var errWarmFallback = errors.New("lp: warm solve abandoned")

// RevisedStats counts what the revised solver actually did — tests assert
// the warm path is exercised and PERF.md reports pivot counts from it.
// The JSON tags and field order are the /v1/stats "lp" block's.
type RevisedStats struct {
	// Solves is the total number of Solve calls.
	Solves int `json:"solves"`
	// WarmSolves counts solves completed by the revised warm path.
	WarmSolves int `json:"warm_solves"`
	// ColdSolves counts solves delegated to the flat tableau solver: a
	// problem outside the revised model, or one that neither its start
	// nor the crash basis solved.
	ColdSolves int `json:"cold_solves"`
	// Fallbacks counts attempts from a given start basis abandoned
	// mid-flight (singular or stalled basis, failed verification), which
	// then retried from the crash basis and, failing that, on the flat
	// tableau.
	Fallbacks int `json:"fallbacks"`
	// PrimalPivots is always 0: the revised path runs only the dual
	// simplex. It is kept so that the /v1/stats "lp" block keeps its
	// shape.
	PrimalPivots int `json:"primal_pivots"`
	// DualPivots counts warm-path dual simplex pivots.
	DualPivots int `json:"dual_pivots"`
	// SEPivots counts the dual pivots whose leaving row was chosen by the
	// Devex-weighted steepest-edge rule (as opposed to Bland scans, either
	// because the rule was configured or as the anti-cycling fallback).
	SEPivots int `json:"se_pivots"`
	// BoundFlips counts nonbasic bound flips applied by the dual
	// bound-flipping ratio test (long-step dual pivots absorb several
	// breakpoints into one basis exchange; each absorbed breakpoint is one
	// flip).
	BoundFlips int `json:"bound_flips"`
	// WeightResets counts steepest-edge reference-weight resets: the Devex
	// weights restart at 1 on every refactorization, so this tracks
	// Refactorizations while steepest-edge pricing is active.
	WeightResets int `json:"weight_resets"`
	// EtaUpdates counts basis exchanges absorbed by a product-form eta
	// update instead of a refactorization.
	EtaUpdates int `json:"eta_updates"`
	// Refactorizations counts working-matrix refactorizations: one per
	// warm attempt, plus every eta-file collapse (cap reached, spike
	// retry, or the exact re-derivation before an answer is accepted).
	Refactorizations int `json:"refactorizations"`
	// PrescreenHits counts Solve calls answered by the Farkas-ray
	// pre-screen: a recycled infeasibility certificate, revalidated
	// exactly against the call's own problem data, proved the problem
	// infeasible before any simplex work. Pre-screened calls are NOT
	// counted in Solves — Solves remains the number of full dispatch
	// solves actually run.
	PrescreenHits int `json:"prescreen_hits"`
	// PrescreenProbes counts individual stored-ray revalidations run by
	// the pre-screen (the structural-cause index's per-miss work;
	// PrescreenHits/PrescreenProbes is its precision).
	PrescreenProbes int `json:"prescreen_probes"`
	// InfeasibleSolves counts full solves (counted in Solves) that ended
	// in a certified ErrInfeasible — the pre-screen's remaining misses;
	// each is also a ray-capture opportunity.
	InfeasibleSolves int `json:"infeasible_solves"`
}

// PricingRule selects how the dual simplex picks its leaving row (and
// whether the entering ratio test may flip bounds).
type PricingRule int8

const (
	// PriceSteepestEdge, the zero value and the warm-path rule, picks the
	// leaving row maximizing violation²/β via Devex reference weights β
	// approximating the dual steepest-edge norms ‖B⁻ᵀe_i‖², with the
	// bound-flipping ratio test. Weights reset to 1 at every
	// refactorization, so the pivot-path heuristic never outlives the
	// factorization it was accumulated against; answers are still only
	// accepted on freshly re-derived numbers, keeping the 1e-9 warm/cold
	// agreement contract and the Farkas-certificate trust rule unchanged.
	PriceSteepestEdge PricingRule = iota
	// PriceBland is the historical rule: smallest-index violated basic
	// variable, smallest-ratio entering column with index tie-breaks, no
	// bound flips. It is the anti-cycling fallback every solve switches to
	// past half its iteration budget, and the reference the agreement
	// tests compare against.
	PriceBland
)

// Variable statuses of the bounded-variable revised simplex. Slack
// variables (one per inequality row: s_i = Bub_i − Aub_i·x, bounds
// [0, Bub_i − Lub_i], so [0, +Inf) on a one-sided row) follow the
// structural variables in the status array. A slack at its upper bound
// holds its row at Lub_i.
const (
	stLower int8 = iota // nonbasic at lower bound
	stUpper             // nonbasic at upper bound
	stBasic
)

const (
	warmMaxIter = 2000
	// ratioTie is the ratio-test tie band, matching the flat solver.
	ratioTie = 1e-12
	// defaultMaxUpdates bounds the product-form eta file between
	// refactorizations. Forty exchanges on a ≤n×n working matrix keep the
	// accumulated forward/backward transformation cost well below one
	// refactorization while bounding update drift; the exact re-derivation
	// at loop exit makes the bound a performance knob, not a correctness
	// one.
	defaultMaxUpdates = 40
	// spikeAbs/spikeRel gate each eta update on its pivot element: a pivot
	// below the absolute floor, or tiny relative to the transformed
	// column's magnitude, would amplify drift through every later solve
	// (the Forrest–Tomlin spike-growth hazard) — such exchanges refactor
	// instead.
	spikeAbs = 1e-11
	spikeRel = 1e-8
	// singularRel is the pivot floor, relative to the working matrix's
	// largest entry, below which a factorization counts as singular.
	singularRel = 1e-12
)

// RevisedSolver is a bounded-variable revised dual simplex solver that
// solves each problem from a start basis its caller supplies. It works on
// the row geometry of the Problem directly (equality rows plus
// slack-extended inequality rows, structural variables kept inside their
// bounds) instead of the flat solver's standard form, and it never
// materializes a tableau: it factors only the small "working matrix" —
// active rows × basic structural columns, at most n×n however many
// inequality rows the problem has — because the basic slack columns are
// unit vectors. Between refactorizations, basis exchanges are absorbed by
// bounded product-form eta updates (Forrest–Tomlin-style pivot monitoring
// with refactor fallback; see dualLoop/pivotUpdate), so a typical warm
// solve factors the working matrix once and pivots through rank-one
// updates.
//
// Each Solve starts from the given basis (a CaptureBasis snapshot) or,
// without one, from a deterministic crash basis. Bound flips make the
// start dual feasible, and the dual simplex then walks it to primal
// feasibility, which is the optimum; a start that cannot be made dual
// feasible by flips is abandoned. Every warm result is verified against
// the original problem (primal feasibility, bound satisfaction, and the
// reduced-cost optimality certificate); any doubt — singular working
// matrix, stalled loop, failed check — abandons the attempt. A solve
// abandoned from its start retries from the crash basis, and one
// abandoned there falls back to the embedded flat tableau Solver, the
// historical reference implementation, so the solver never returns an
// unverified warm answer. No basis is kept from one Solve to the next:
// between calls the solver holds only its Farkas-ray index (see
// prescreen.go) and scratch buffers.
//
// A RevisedSolver is not safe for concurrent use; use one per goroutine.
type RevisedSolver struct {
	cold    Solver
	stats   RevisedStats
	flushed RevisedStats // portion of stats already added to the globals

	// Statuses per variable (structural then slacks) and the dimensions of
	// the problem being solved. ended records that the last full solve
	// finished on the revised path, so status holds its final basis for
	// CaptureBasis; Solve never reads it.
	status             []int8
	sigN, sigEq, sigUb int
	ended              bool

	// Per-solve model arrays, length nTot = n + nUb.
	lo, up, c []float64
	x, d      []float64
	// Basis bookkeeping, frozen at the last refactorization (eta updates
	// exchange basis positions without touching these).
	activeRows  []int  // eq rows + inequality rows whose slack is nonbasic
	basicStruct []int  // basic structural columns, ascending
	isBasicCol  []bool // length n
	w           mat.Dense
	lu          mat.LU
	// abasic is the contiguous gather of the basic structural columns over
	// the inactive rows, rebuilt at each refactorization:
	// abasic[t*k+b] = A[inactiveRows[t], basicStruct[b]]. The ftran/btran
	// inactive-row sweeps run on these contiguous k-vectors instead of
	// indexed gathers through the problem's row views.
	abasic []float64
	// Product-form eta file: basis B = B₀·E₁·…·E_t where B₀ is the frozen
	// factorization above and each Eᵢ is the identity with basis position
	// etaPos[i] replaced by the column etaBuf[i·m:(i+1)·m] (m = nEq+nUb).
	// varAt/posOf track which variable currently holds each position;
	// inactiveRows lists the rows whose slack was basic at refactor time
	// (positions k..m-1, in row order).
	maxUpdates   int // see SetMaxUpdates; 0 = default, negative = disabled
	etaPos       []int
	etaBuf       []float64
	varAt, posOf []int
	inactiveRows []int
	fresh        bool // x and d were recomputed from a fresh factorization
	// Pricing state: the configured rule, the Devex reference weights per
	// basis position (reset to 1 at every refactorization), and the
	// bound-flipping ratio-test scratch.
	pricing PricingRule
	dw      []float64
	cands   []dualCand
	flips   []int
	// Farkas-ray pre-screen state (see prescreen.go): an MRU index of
	// infeasibility certificates keyed by structural cause, plus scratch.
	// Rays are never trusted from storage, only after exact revalidation
	// against the current problem's data. DropRays empties the index.
	rays                []farkasRay
	rayScratch, rayCand []float64
	// Scratch vectors sized to the working dimension k, m or nTot; rowVec
	// is the stacked-row input of ftranRows and fcol its output.
	rhs, sol, yAct, colAct, alpha []float64
	posv, pi, rowVec, fcol        []float64
	// Tolerances, refreshed per solve from the problem scale: ftol is each
	// variable's feasibility tolerance (see setupModel), ptol the largest
	// of them, dtol the reduced-cost tolerance.
	ftol       []float64
	ptol, dtol float64
}

// dualCand is one sign-eligible entering candidate of the dual ratio test:
// its variable index and its dual ratio |d_j|/|α_j|.
type dualCand struct {
	j     int
	ratio float64
}

// NewRevisedSolver returns an empty solver; buffers grow on first use.
func NewRevisedSolver() *RevisedSolver { return &RevisedSolver{} }

// Stats returns the cumulative solve counters.
func (s *RevisedSolver) Stats() RevisedStats { return s.stats }

// DropRays empties the Farkas-ray index. Stored rays never change a
// verdict, only how many solves it takes to reach one, so drivers that
// need solve counts independent of how their work is split across solvers
// drop the index at their reproducibility boundaries.
func (s *RevisedSolver) DropRays() { s.rays = s.rays[:0] }

// WarmBasis is a portable snapshot of the basis a solve ended on: the
// per-variable statuses (structural then inequality slacks) plus the
// problem signature they belong to. It is immutable once captured, so one snapshot may start
// any number of solves on any number of solvers concurrently.
type WarmBasis struct {
	status    []int8
	n, eq, ub int
}

// CaptureBasis snapshots the basis the last full solve ended on, or
// returns nil when that solve did not finish on the revised path (flat
// tableau solves leave no basis).
func (s *RevisedSolver) CaptureBasis() *WarmBasis {
	if !s.ended {
		return nil
	}
	nTot := s.sigN + s.sigUb
	return &WarmBasis{
		status: append([]int8(nil), s.status[:nTot]...),
		n:      s.sigN, eq: s.sigEq, ub: s.sigUb,
	}
}

// SetMaxUpdates bounds the product-form eta updates accumulated between
// refactorizations. Zero restores the default (defaultMaxUpdates); a
// negative value disables eta updates entirely, refactorizing after every
// basis exchange — the pre-update reference behavior the agreement tests
// compare against.
func (s *RevisedSolver) SetMaxUpdates(n int) { s.maxUpdates = n }

func (s *RevisedSolver) effMaxUpdates() int {
	switch {
	case s.maxUpdates < 0:
		return 0
	case s.maxUpdates == 0:
		return defaultMaxUpdates
	}
	return s.maxUpdates
}

// SetPricing selects the dual pricing rule (default PriceSteepestEdge).
func (s *RevisedSolver) SetPricing(r PricingRule) { s.pricing = r }

// Solve solves the problem from start, a basis captured from an earlier
// solve, or from the deterministic crash basis when start is nil. A start
// whose signature (variable, equality and inequality counts) does not
// match the problem is ignored. The answer depends only on the problem
// and the start; the Farkas-ray index can only prove an infeasible problem
// infeasible sooner. The error contract is that of the package-level
// Solve.
func (s *RevisedSolver) Solve(p *Problem, start *WarmBasis) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	defer s.flushStats()
	n := len(p.C)
	nEq, nUb := 0, 0
	if p.Aeq != nil {
		nEq = p.Aeq.Rows()
	}
	if p.Aub != nil {
		nUb = p.Aub.Rows()
	}
	// Farkas-ray pre-screen: if a recycled certificate, revalidated against
	// this problem's exact data, proves infeasibility, that IS the answer —
	// no simplex run, not counted in Solves.
	if len(s.rays) > 0 && s.prescreen(p, n, nEq, nUb) {
		s.stats.PrescreenHits++
		return nil, ErrInfeasible
	}
	s.stats.Solves++
	s.sigN, s.sigEq, s.sigUb = n, nEq, nUb
	s.ended = false

	if nEq+nUb == 0 || !s.warmEligible(p) {
		// Unconstrained problems never touch the tableau basis, and free
		// variables have no bound to park a nonbasic status at; both stay
		// on the flat path.
		s.stats.ColdSolves++
		return s.countInfeasible(s.cold.Solve(p))
	}

	if start != nil && start.n == n && start.eq == nEq && start.ub == nUb {
		s.status = growI8(s.status, n+nUb)
		copy(s.status, start.status)
		if sol, err := s.warmSolve(p); s.warmFinal(err) {
			return s.countInfeasible(sol, err)
		}
		s.stats.Fallbacks++
	}
	// No usable start. Before paying for the flat two-phase tableau solve,
	// try the revised machinery from a deterministic crash basis (all
	// slacks basic, one max-coefficient structural per equality row): the
	// flip repair makes it dual feasible and the dual simplex walks to the
	// optimum in roughly active-set-many cheap pivots instead of the
	// tableau's dense Gauss-Jordan passes. The result passes the same
	// verification as any warm solve; any doubt still lands on the exact
	// cold path. The crash basis is a pure function of the problem, so
	// these answers stay deterministic and scheduling-independent.
	if s.crashBasis(p) {
		if sol, err := s.warmSolve(p); s.warmFinal(err) {
			return s.countInfeasible(sol, err)
		}
	}
	s.stats.ColdSolves++
	return s.countInfeasible(s.cold.Solve(p))
}

// warmFinal reports whether a warmSolve outcome is final — an optimum or a
// certified infeasibility — and counts it as a warm solve. Any other
// outcome abandons the attempt.
func (s *RevisedSolver) warmFinal(err error) bool {
	if err != nil && !errors.Is(err, ErrInfeasible) {
		return false
	}
	s.stats.WarmSolves++
	s.ended = true
	return true
}

// countInfeasible attributes a full solve's infeasible outcome to the
// stats on its way out (pre-screened calls are counted separately).
func (s *RevisedSolver) countInfeasible(sol *Solution, err error) (*Solution, error) {
	if errors.Is(err, ErrInfeasible) {
		s.stats.InfeasibleSolves++
	}
	return sol, err
}

// crashBasis installs the deterministic cold-start basis: every slack
// basic, every structural nonbasic at a finite bound, except one
// structural per equality row — the largest-|coefficient| column not yet
// chosen — to complete the basis. Returns false when an equality row has
// no usable column (the flat path handles it).
func (s *RevisedSolver) crashBasis(p *Problem) bool {
	n, nEq, nUb := s.sigN, s.sigEq, s.sigUb
	s.status = growI8(s.status, n+nUb)
	for j := 0; j < n; j++ {
		if lo, _ := p.bound(j); math.IsInf(lo, -1) {
			s.status[j] = stUpper
		} else {
			s.status[j] = stLower
		}
	}
	for i := 0; i < nUb; i++ {
		s.status[n+i] = stBasic
	}
	for r := 0; r < nEq; r++ {
		rv := p.Aeq.RowView(r)
		best, bv := -1, 0.0
		for j := 0; j < n; j++ {
			if s.status[j] == stBasic {
				continue
			}
			if a := math.Abs(rv[j]); a > bv {
				bv, best = a, j
			}
		}
		if best < 0 {
			return false
		}
		s.status[best] = stBasic
	}
	return true
}

// warmEligible reports whether every variable has at least one finite
// bound (the nonbasic statuses need a bound to sit at).
func (s *RevisedSolver) warmEligible(p *Problem) bool {
	for j := range p.C {
		lo, up := p.bound(j)
		if math.IsInf(lo, -1) && math.IsInf(up, 1) {
			return false
		}
	}
	return true
}

// ---- Warm path ------------------------------------------------------------

// warmSolve solves p from the start basis in s.status with the dual
// simplex. It returns errWarmFallback for any reason to abandon the
// attempt; the only other error is a certified ErrInfeasible.
func (s *RevisedSolver) warmSolve(p *Problem) (*Solution, error) {
	n := s.sigN
	s.setupModel(p)
	// A start captured on another problem of the same signature may park a
	// nonbasic variable at a bound that is infinite here (a slack at the
	// upper bound of a row that is ranged there and one-sided here); it
	// starts from its finite bound instead.
	for j, st := range s.status[:n+s.sigUb] {
		switch {
		case st == stUpper && math.IsInf(s.up[j], 1):
			s.status[j] = stLower
		case st == stLower && math.IsInf(s.lo[j], -1):
			s.status[j] = stUpper
		}
	}
	if s.refresh(p) != nil {
		return nil, errWarmFallback
	}
	// A start seeded from another problem instance (the engine's seed
	// basis, the crash basis) is usually neither primal nor dual feasible
	// here. Bound flipping restores dual feasibility without touching the
	// basis matrix: a nonbasic variable whose reduced cost has the wrong
	// sign for its bound moves to the opposite bound, where the same sign
	// is the right one. Only variables with both bounds finite can flip —
	// the structurals and the slacks of ranged rows; a wrong-signed
	// variable without a finite opposite bound (the slack of a one-sided
	// row) keeps the repair impossible and the attempt is abandoned. After
	// the flips the factorization and reduced costs are still exact, only
	// the primal values moved, so one computeX refresh feeds the dual
	// simplex.
	if !s.dualFeasible() {
		if !s.flipToDualFeasible() {
			return nil, errWarmFallback
		}
		s.computeX(p)
	}
	// A certified infeasibility verdict — issued only on a fresh
	// factorization with no entering column for a violated row, the Farkas
	// certificate — is a final answer the caller must not re-derive on the
	// flat tableau (on large cases an infeasible candidate costs seconds
	// there, and the selection search probes many); every other failure
	// stays a fallback. A start that is already primal feasible leaves
	// dualLoop at once on the fresh numbers above.
	switch err := s.dualLoop(p); {
	case errors.Is(err, ErrInfeasible):
		return nil, ErrInfeasible
	case err != nil:
		return nil, errWarmFallback
	}
	if !s.verify(p) {
		return nil, errWarmFallback
	}
	xOut := make([]float64, n)
	copy(xOut, s.x[:n])
	return &Solution{X: xOut, Objective: mat.Dot(p.C, xOut), Status: StatusOptimal}, nil
}

// setupModel fills the per-variable bound and cost arrays and the
// scale-aware tolerances. A structural variable's feasibility tolerance is
// ptol, the one verify applies to its bounds. The slack of inequality row
// i has the bounds [0, Bub_i − Lub_i] and the tolerance
// feasTol·(1+min(|Bub_i|, |Lub_i|)) (feasTol·(1+|Bub_i|) on a one-sided
// row), never looser than verify's test of either side of that row (which
// also counts Σ|a_ij·x_j|), so a basis the dual simplex accepts as primal
// feasible is one verify accepts.
func (s *RevisedSolver) setupModel(p *Problem) {
	n, nUb := s.sigN, s.sigUb
	nTot := n + nUb
	s.lo = growF(s.lo, nTot)
	s.up = growF(s.up, nTot)
	s.c = growF(s.c, nTot)
	s.x = growF(s.x, nTot)
	s.d = growF(s.d, nTot)
	s.ftol = growF(s.ftol, nTot)
	var cScale float64
	for j := 0; j < n; j++ {
		s.lo[j], s.up[j] = p.bound(j)
		s.c[j] = p.C[j]
		if a := math.Abs(p.C[j]); a > cScale {
			cScale = a
		}
	}
	for i := 0; i < nUb; i++ {
		s.lo[n+i], s.up[n+i] = 0, math.Inf(1)
		if l := p.rowLower(i); !math.IsInf(l, -1) {
			s.up[n+i] = p.Bub[i] - l
		}
		s.c[n+i] = 0
	}
	var bScale float64
	for _, v := range p.Beq {
		if a := math.Abs(v); a > bScale {
			bScale = a
		}
	}
	for _, v := range p.Bub {
		if a := math.Abs(v); a > bScale {
			bScale = a
		}
	}
	for _, v := range p.Lub {
		if a := math.Abs(v); a > bScale && !math.IsInf(a, 1) {
			bScale = a
		}
	}
	for j := 0; j < n; j++ {
		if a := math.Abs(s.lo[j]); a > bScale && !math.IsInf(a, 1) {
			bScale = a
		}
		if a := math.Abs(s.up[j]); a > bScale && !math.IsInf(a, 1) {
			bScale = a
		}
	}
	s.ptol = feasTol * (1 + bScale)
	s.dtol = feasTol * (1 + cScale)
	for j := 0; j < n; j++ {
		s.ftol[j] = s.ptol
	}
	for i, b := range p.Bub {
		s.ftol[n+i] = feasTol * (1 + math.Min(math.Abs(b), math.Abs(p.rowLower(i))))
	}
}

// violation returns how far variable j lies outside its bounds, or 0 when
// it is within its feasibility tolerance of them, and whether it is below
// its lower bound. It is the one primal feasibility rule of the solver:
// both leaving-row rules of dualLoop and verify's bound loop apply it.
func (s *RevisedSolver) violation(j int) (v float64, below bool) {
	switch {
	case s.x[j] < s.lo[j]-s.ftol[j]:
		return s.lo[j] - s.x[j], true
	case s.x[j] > s.up[j]+s.ftol[j]:
		return s.x[j] - s.up[j], false
	}
	return 0, false
}

// rowView returns row r of the stacked [Aeq; Aub] constraint matrix.
func (s *RevisedSolver) rowView(p *Problem, r int) []float64 {
	if r < s.sigEq {
		return p.Aeq.RowView(r)
	}
	return p.Aub.RowView(r - s.sigEq)
}

// rowRHS returns the value an active stacked row r holds: Beq, or for an
// inequality row Bub when its slack is at 0 and Lub itself when the slack
// is at its upper bound Bub − Lub (not Bub − (Bub − Lub), which need not
// round back to Lub).
func (s *RevisedSolver) rowRHS(p *Problem, r int) float64 {
	if r < s.sigEq {
		return p.Beq[r]
	}
	i := r - s.sigEq
	if s.status[s.sigN+i] == stUpper {
		return p.Lub[i]
	}
	return p.Bub[i]
}

// factorBasis rebuilds the active-row and basic-column lists from the
// statuses and factors the working matrix W = A[active rows, basic
// structural columns]. Any structural defect (cardinality mismatch,
// singular W) is an error that abandons the attempt.
func (s *RevisedSolver) factorBasis(p *Problem) error {
	n, nEq, nUb := s.sigN, s.sigEq, s.sigUb
	s.activeRows = s.activeRows[:0]
	for r := 0; r < nEq; r++ {
		s.activeRows = append(s.activeRows, r)
	}
	for i := 0; i < nUb; i++ {
		if s.status[n+i] != stBasic {
			s.activeRows = append(s.activeRows, nEq+i)
		}
	}
	s.basicStruct = s.basicStruct[:0]
	if cap(s.isBasicCol) < n {
		s.isBasicCol = make([]bool, n)
	}
	s.isBasicCol = s.isBasicCol[:n]
	for j := 0; j < n; j++ {
		s.isBasicCol[j] = s.status[j] == stBasic
		if s.isBasicCol[j] {
			s.basicStruct = append(s.basicStruct, j)
		}
	}
	k := len(s.activeRows)
	if len(s.basicStruct) != k {
		return ErrMaxIterations // structural defect; exact error unused
	}
	// Freeze the position bookkeeping the eta file pivots against:
	// positions 0..k-1 hold the basic structural columns, positions
	// k..m-1 the basic slacks in row order.
	m := nEq + nUb
	s.varAt = growI(s.varAt, m)
	s.posOf = growI(s.posOf, n+nUb)
	for j := range s.posOf {
		s.posOf[j] = -1
	}
	for b, j := range s.basicStruct {
		s.varAt[b] = j
		s.posOf[j] = b
	}
	s.inactiveRows = s.inactiveRows[:0]
	for i, t := 0, 0; i < nUb; i++ {
		if s.status[n+i] == stBasic {
			s.inactiveRows = append(s.inactiveRows, nEq+i)
			s.varAt[k+t] = n + i
			s.posOf[n+i] = k + t
			t++
		}
	}
	s.etaPos = s.etaPos[:0]
	s.etaBuf = s.etaBuf[:0]
	s.stats.Refactorizations++
	if s.pricing == PriceSteepestEdge {
		// Devex reference framework restart: the weights approximate dual
		// steepest-edge norms relative to the factorization they were
		// accumulated against, so every refactorization re-references them
		// at 1.
		s.dw = growF(s.dw, m)
		for i := range s.dw {
			s.dw[i] = 1
		}
		s.stats.WeightResets++
	}

	// Contiguous gather of the basic structural columns over the inactive
	// rows: the ftran/btran inactive-row sweeps run Dot/Axpy kernels on
	// these k-vectors instead of indexed gathers through the row views.
	nIn := len(s.inactiveRows)
	s.abasic = growF(s.abasic, nIn*k)
	for t, r := range s.inactiveRows {
		rv := s.rowView(p, r)
		row := s.abasic[t*k : (t+1)*k]
		for b, j := range s.basicStruct {
			row[b] = rv[j]
		}
	}

	s.w.ReuseAs(k, k)
	wd := s.w.RawData()
	var wMax float64
	for a, r := range s.activeRows {
		rv := s.rowView(p, r)
		row := wd[a*k : (a+1)*k]
		for b, j := range s.basicStruct {
			row[b] = rv[j]
			wMax = math.Max(wMax, math.Abs(rv[j]))
		}
	}
	if k == 0 {
		return nil
	}
	if err := s.lu.Reset(&s.w); err != nil {
		return err
	}
	// A W that is singular in all but rounding (redundant equality rows
	// give one) still factors, but its solves are noise that can pass
	// verification; treat it as singular.
	if s.lu.MinAbsPivot() <= singularRel*wMax {
		return mat.ErrSingular
	}
	return nil
}

// refresh refactors the working matrix from the current statuses and
// re-derives primal values and reduced costs from scratch, collapsing any
// accumulated eta file together with its drift.
func (s *RevisedSolver) refresh(p *Problem) error {
	if err := s.factorBasis(p); err != nil {
		return err
	}
	s.computeX(p)
	s.computeDualsAndReducedCosts(p)
	s.fresh = true
	return nil
}

// computeX sets every variable's value from the statuses: nonbasic at
// bounds, basic structurals from the working-matrix solve, basic slacks
// from their row residuals.
func (s *RevisedSolver) computeX(p *Problem) {
	n, nUb := s.sigN, s.sigUb
	for j := 0; j < n+nUb; j++ {
		switch s.status[j] {
		case stLower:
			s.x[j] = s.lo[j]
		case stUpper:
			s.x[j] = s.up[j]
		}
	}
	k := len(s.activeRows)
	s.rhs = growF(s.rhs, k)
	s.sol = growF(s.sol, k)
	for a, r := range s.activeRows {
		rv := s.rowView(p, r)
		sum := s.rowRHS(p, r)
		for j := 0; j < n; j++ {
			if !s.isBasicCol[j] {
				sum -= rv[j] * s.x[j]
			}
		}
		s.rhs[a] = sum
	}
	if k > 0 {
		s.lu.SolveInto(s.sol, s.rhs)
		for b, j := range s.basicStruct {
			s.x[j] = s.sol[b]
		}
	}
	for i := 0; i < nUb; i++ {
		if s.status[n+i] != stBasic {
			continue
		}
		rv := p.Aub.RowView(i)
		sum := p.Bub[i]
		for j := 0; j < n; j++ {
			sum -= rv[j] * s.x[j]
		}
		s.x[n+i] = sum
	}
}

// computeDualsAndReducedCosts solves Wᵀy = c_B for the active-row duals
// and prices every column: d = c − yᵀA (zero dual on inactive rows).
func (s *RevisedSolver) computeDualsAndReducedCosts(p *Problem) {
	n, nEq, nUb := s.sigN, s.sigEq, s.sigUb
	k := len(s.activeRows)
	s.yAct = growF(s.yAct, k)
	s.rhs = growF(s.rhs, k)
	for b, j := range s.basicStruct {
		s.rhs[b] = s.c[j]
	}
	if k > 0 {
		s.lu.SolveTransposeInto(s.yAct, s.rhs)
	}
	copy(s.d[:n], s.c[:n])
	for i := 0; i < nUb; i++ {
		s.d[n+i] = 0
	}
	for a, r := range s.activeRows {
		y := s.yAct[a]
		if y != 0 {
			mat.AxpyVec(-y, s.rowView(p, r), s.d[:n])
		}
		if r >= nEq {
			s.d[n+(r-nEq)] = -y
		}
	}
}

// flipToDualFeasible flips nonbasic variables with wrong-signed reduced
// costs to their opposite bound, making the basis dual feasible without
// changing the basis matrix (flips only move nonbasic values, so the
// factorization and the reduced costs stay exact). A ranged row's slack
// flips like a boxed structural, moving its row from Bub to Lub. Returns
// false when a wrong-signed variable has no finite opposite bound to flip
// to (the slack of a one-sided row); statuses may then be partially
// flipped, which is fine — every failure path abandons the attempt.
func (s *RevisedSolver) flipToDualFeasible() bool {
	for j, st := range s.status[:s.sigN+s.sigUb] {
		if s.up[j] <= s.lo[j] {
			continue // fixed variable: any sign is optimal
		}
		switch st {
		case stLower:
			if s.d[j] < -s.dtol {
				if math.IsInf(s.up[j], 1) {
					return false
				}
				s.status[j] = stUpper
			}
		case stUpper:
			if s.d[j] > s.dtol {
				if math.IsInf(s.lo[j], -1) {
					return false
				}
				s.status[j] = stLower
			}
		}
	}
	return true
}

// dualFeasible reports whether the reduced costs certify the current
// basis: nonnegative at lower bounds, nonpositive at upper bounds.
func (s *RevisedSolver) dualFeasible() bool {
	for j, st := range s.status[:s.sigN+s.sigUb] {
		switch st {
		case stLower:
			if s.d[j] < -s.dtol && s.up[j] > s.lo[j] {
				return false
			}
		case stUpper:
			if s.d[j] > s.dtol && s.up[j] > s.lo[j] {
				return false
			}
		}
	}
	return true
}

// ftran computes w = B⁻¹·a_q over basis positions for column q: it
// gathers the column into a stacked-row vector (a slack column is the unit
// vector on its row) and applies ftranRows.
func (s *RevisedSolver) ftran(p *Problem, q int) []float64 {
	n := s.sigN
	m := s.sigEq + s.sigUb
	s.rowVec = growF(s.rowVec, m)
	if q < n {
		for r := range s.rowVec {
			s.rowVec[r] = s.rowView(p, r)[q]
		}
	} else {
		for r := range s.rowVec {
			s.rowVec[r] = 0
		}
		s.rowVec[s.sigEq+(q-n)] = 1
	}
	return s.ftranRows(s.rowVec)
}

// btranUnit computes π = B⁻ᵀ·e_pos over the stacked rows: the eta file's
// transposed solves run in reverse pivot order on the position vector, then
// the frozen B₀ᵀ turns positions into row duals — frozen-basic slack rows
// read their position directly, the active rows go through the transposed
// LU after eliminating the slack-row contributions of the basic structural
// columns.
func (s *RevisedSolver) btranUnit(p *Problem, pos int) []float64 {
	k := len(s.activeRows)
	m := s.sigEq + s.sigUb
	s.posv = growF(s.posv, m)
	for i := range s.posv {
		s.posv[i] = 0
	}
	s.posv[pos] = 1
	for t := len(s.etaPos) - 1; t >= 0; t-- {
		pp := s.etaPos[t]
		e := s.etaBuf[t*m : (t+1)*m]
		var sum float64
		for j := 0; j < m; j++ {
			if j != pp {
				sum += e[j] * s.posv[j]
			}
		}
		s.posv[pp] = (s.posv[pp] - sum) / e[pp]
	}
	s.pi = growF(s.pi, m)
	for i := range s.pi {
		s.pi[i] = 0
	}
	for t, r := range s.inactiveRows {
		s.pi[r] = s.posv[k+t]
	}
	if k > 0 {
		s.rhs = growF(s.rhs, k)
		copy(s.rhs, s.posv[:k])
		for t := range s.inactiveRows {
			pr := s.posv[k+t]
			if pr == 0 {
				continue
			}
			mat.AxpyVec(-pr, s.abasic[t*k:(t+1)*k], s.rhs[:k])
		}
		s.yAct = growF(s.yAct, k)
		s.lu.SolveTransposeInto(s.yAct, s.rhs)
		for a, r := range s.activeRows {
			s.pi[r] = s.yAct[a]
		}
	}
	return s.pi
}

// priceAlpha fills s.alpha with α_j = πᵀ·A[:,j] for every column from the
// row duals π: structural columns accumulate over the rows with nonzero
// dual, slack columns read their row's dual directly.
func (s *RevisedSolver) priceAlpha(p *Problem, pi []float64) {
	n, nEq, nUb := s.sigN, s.sigEq, s.sigUb
	s.alpha = growF(s.alpha, n+nUb)
	for j := 0; j < n; j++ {
		s.alpha[j] = 0
	}
	for r := 0; r < nEq+nUb; r++ {
		if pi[r] != 0 {
			mat.AxpyVec(pi[r], s.rowView(p, r), s.alpha[:n])
		}
	}
	for i := 0; i < nUb; i++ {
		s.alpha[n+i] = pi[nEq+i]
	}
}

// etaSpike reports whether the basis exchange at position pos is too
// ill-conditioned to absorb as an eta update: product-form solves divide by
// w[pos], so a pivot element far below the transformed column's magnitude
// (or below absolute noise) would amplify drift through every later solve.
func etaSpike(w []float64, pos int) bool {
	wp := math.Abs(w[pos])
	if wp < spikeAbs {
		return true
	}
	var max float64
	for _, v := range w {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return wp < spikeRel*max
}

// pivotUpdate applies the basis exchange enter↔(leave at position pos)
// without refactorizing: primal values move along w = B⁻¹·a_enter by delta
// (the entering variable's signed step off its bound), reduced costs by the
// standard pivot-row update through ρ = B⁻ᵀ·e_pos, and w joins the eta
// file. The caller has already chosen the exchange and cleared the spike
// check; the update collapses into a refactorization when the eta cap is
// reached.
func (s *RevisedSolver) pivotUpdate(p *Problem, enter, leave, pos int, w []float64, delta float64, leaveAtUpper bool) error {
	m := s.sigEq + s.sigUb
	if delta != 0 {
		for b := 0; b < m; b++ {
			if v := w[b]; v != 0 {
				s.x[s.varAt[b]] -= delta * v
			}
		}
	}
	s.x[enter] += delta
	if leaveAtUpper {
		s.x[leave] = s.up[leave]
	} else {
		s.x[leave] = s.lo[leave]
	}

	// ρ is taken against the pre-exchange basis, so it must precede the
	// eta append; the status swap follows the dual update so that the loop
	// below skips exactly the pre-exchange basic columns.
	pi := s.btranUnit(p, pos)
	s.priceAlpha(p, pi)
	rate := s.d[enter] / w[pos]
	if rate != 0 {
		nTot := s.sigN + s.sigUb
		for j := 0; j < nTot; j++ {
			if s.status[j] != stBasic && j != enter {
				s.d[j] -= rate * s.alpha[j]
			}
		}
	}
	s.d[leave] = -rate
	s.d[enter] = 0

	s.status[enter] = stBasic
	if leaveAtUpper {
		s.status[leave] = stUpper
	} else {
		s.status[leave] = stLower
	}
	s.varAt[pos] = enter
	s.posOf[enter] = pos
	s.posOf[leave] = -1
	s.etaPos = append(s.etaPos, pos)
	s.etaBuf = append(s.etaBuf, w...)
	s.stats.EtaUpdates++
	s.fresh = false
	if len(s.etaPos) >= s.effMaxUpdates() {
		return s.refresh(p)
	}
	return nil
}

// dualLoop runs bounded-variable dual simplex pivots from a dual-feasible
// basis until primal feasibility, which for a dual-feasible basis is
// optimality. Basis exchanges are absorbed by product-form eta updates
// (pivotUpdate) instead of per-pivot refactorizations; the working matrix
// refactors only when the eta cap or the spike monitor demands it, and
// always once more before feasibility is accepted, so a nil return means
// s.x is primal feasible for the current statuses, exactly recomputed —
// eta drift can steer the pivot path, never the answer.
func (s *RevisedSolver) dualLoop(p *Problem) error {
	nTot := s.sigN + s.sigUb
	m := s.sigEq + s.sigUb
	for iter := 0; iter < warmMaxIter; iter++ {
		// Past half the iteration budget the loop abandons the weighted
		// rule for Bland's — the anti-cycling guarantee the pricing
		// heuristic lacks. The selection rule only steers the pivot path;
		// the answer is still accepted only on freshly re-derived numbers.
		bland := s.pricing == PriceBland || iter >= warmMaxIter/2

		// Leaving variable.
		leave := -1
		var belowLower bool
		var viol float64
		if bland {
			// Historical rule: smallest-index basic variable outside its
			// bounds (Bland-style anti-cycling for the dual method).
			for j := 0; j < nTot; j++ {
				if v, bl := s.violation(j); s.status[j] == stBasic && v > 0 {
					leave, belowLower, viol = j, bl, v
					break
				}
			}
		} else {
			// Most-violated row by violation²/β, with a deterministic
			// smallest-variable tie-break.
			best := 0.0
			for b := 0; b < m; b++ {
				j := s.varAt[b]
				v, bl := s.violation(j)
				if v == 0 {
					continue
				}
				score := v * v / s.dw[b]
				if leave < 0 || score > best || (score == best && j < leave) {
					best, leave, belowLower, viol = score, j, bl, v
				}
			}
		}
		if leave < 0 {
			if s.fresh {
				return nil // primal feasible, on exactly re-derived numbers
			}
			if err := s.refresh(p); err != nil {
				return err
			}
			continue
		}
		pos := s.posOf[leave]
		if pos < 0 {
			return ErrMaxIterations
		}

		// Row direction and pricing: alpha_j = pi . A[:, j] with
		// pi = B^-T e_pos through the eta file.
		pi := s.btranUnit(p, pos)
		s.priceAlpha(p, pi)

		// Entering candidates: sign-eligible nonbasic columns with their
		// dual ratios |d|/|alpha|.
		s.cands = s.cands[:0]
		for j := 0; j < nTot; j++ {
			st := s.status[j]
			if st == stBasic || s.up[j] <= s.lo[j] {
				continue
			}
			a := s.alpha[j]
			if math.Abs(a) <= pivotTol {
				continue
			}
			// x_leave changes by -alpha_j * dx_j; pick directions that
			// push it back toward the violated bound.
			var elig bool
			if belowLower {
				elig = (st == stLower && a < 0) || (st == stUpper && a > 0)
			} else {
				elig = (st == stLower && a > 0) || (st == stUpper && a < 0)
			}
			if !elig {
				continue
			}
			dj := s.d[j]
			// Clamp tiny wrong-signed reduced costs (inside the dual
			// tolerance) to zero so the ratio stays nonnegative.
			if st == stLower && dj < 0 {
				dj = 0
			}
			if st == stUpper && dj > 0 {
				dj = 0
			}
			s.cands = append(s.cands, dualCand{j: j, ratio: math.Abs(dj) / math.Abs(a)})
		}
		if len(s.cands) == 0 {
			if !s.fresh {
				// The violation may be an artifact of eta drift: re-derive
				// exactly before declaring the problem infeasible.
				if err := s.refresh(p); err != nil {
					return err
				}
				continue
			}
			// No column can repair the violated row: primal infeasible.
			// Bank the dual ray as a recyclable certificate before
			// reporting, indexed by its structural cause — the violated
			// basic variable and direction (see prescreen.go).
			s.captureRay(p, farkasCause{leave: leave, belowLower: belowLower})
			return ErrInfeasible
		}
		enter := -1
		s.flips = s.flips[:0]
		if bland {
			// Historical entering rule: smallest ratio with Bland
			// tie-breaking, no bound flips.
			best := math.Inf(1)
			for _, c := range s.cands {
				if c.ratio < best-ratioTie || (c.ratio <= best+ratioTie && (enter == -1 || c.j < enter)) {
					best, enter = c.ratio, c.j
				}
			}
		} else {
			// Bound-flipping ratio test: walk the breakpoints in dual-step
			// order. Passing a boxed candidate's breakpoint flips it to the
			// opposite bound (its reduced cost changes sign there, so the
			// flip keeps dual feasibility) and reduces the improvement slope
			// — the leaving variable's remaining violation — by |α|·range.
			// The entering column is the breakpoint at which the slope would
			// be exhausted, or the first candidate with no finite opposite
			// bound to flip to. One long dual step absorbs every flipped
			// breakpoint into a single basis exchange.
			sort.Slice(s.cands, func(a, b int) bool {
				ca, cb := s.cands[a], s.cands[b]
				return ca.ratio < cb.ratio || (ca.ratio == cb.ratio && ca.j < cb.j)
			})
			slope := viol
			for _, c := range s.cands {
				rng := s.up[c.j] - s.lo[c.j]
				if math.IsInf(rng, 1) {
					enter = c.j
					break
				}
				dec := math.Abs(s.alpha[c.j]) * rng
				if slope-dec <= s.ptol {
					enter = c.j
					break
				}
				slope -= dec
				s.flips = append(s.flips, c.j)
			}
			if enter < 0 {
				// Every candidate is a flippable breakpoint and the slope
				// never exhausts. Enter at the last breakpoint instead of
				// inventing an unbounded dual ray — infeasibility verdicts
				// stay with the fresh-basis Farkas branch above.
				enter = s.flips[len(s.flips)-1]
				s.flips = s.flips[:len(s.flips)-1]
			}
			if len(s.flips) > 0 {
				s.applyFlips(p)
			}
		}
		w := s.ftran(p, enter)
		if s.effMaxUpdates() == 0 || etaSpike(w, pos) {
			if len(s.etaPos) > 0 {
				if err := s.refresh(p); err != nil {
					return err
				}
				continue
			}
			s.stats.DualPivots++
			if !bland {
				s.stats.SEPivots++
			}
			s.status[enter] = stBasic
			if belowLower {
				s.status[leave] = stLower
			} else {
				s.status[leave] = stUpper
			}
			if err := s.refresh(p); err != nil {
				return err
			}
			continue
		}
		var bound float64
		if belowLower {
			bound = s.lo[leave]
		} else {
			bound = s.up[leave]
		}
		delta := (s.x[leave] - bound) / w[pos]
		s.stats.DualPivots++
		if !bland {
			s.stats.SEPivots++
			s.devexUpdate(w, pos, m)
		}
		if err := s.pivotUpdate(p, enter, leave, pos, w, delta, !belowLower); err != nil {
			return err
		}
	}
	return ErrMaxIterations
}

// devexUpdate propagates the Devex reference weights through the basis
// exchange at position pos with transformed column w (taken against the
// pre-exchange basis): every touched position's weight rises to at least
// its steepest-edge estimate through the pivot, and the pivot position
// restarts from the reference floor of 1. Weights only steer leaving-row
// selection, so approximation error here costs pivots, never correctness.
func (s *RevisedSolver) devexUpdate(w []float64, pos, m int) {
	wp := w[pos]
	bp := s.dw[pos]
	for i := 0; i < m; i++ {
		if i == pos || w[i] == 0 {
			continue
		}
		r := w[i] / wp
		if cand := r * r * bp; cand > s.dw[i] {
			s.dw[i] = cand
		}
	}
	if d := bp / (wp * wp); d > 1 {
		s.dw[pos] = d
	} else {
		s.dw[pos] = 1
	}
}

// applyFlips moves every variable in s.flips to its opposite bound and
// repairs the basic values with one combined ftran: Δx_B = −B⁻¹·A_F·Δx_F,
// where the flipped columns' deltas are accumulated into a single stacked-row
// vector first. Flips never touch the basis matrix or the reduced costs —
// only primal values move.
func (s *RevisedSolver) applyFlips(p *Problem) {
	n, nEq := s.sigN, s.sigEq
	m := s.sigEq + s.sigUb
	s.rowVec = growF(s.rowVec, m)
	for i := range s.rowVec {
		s.rowVec[i] = 0
	}
	for _, j := range s.flips {
		var dx float64
		if s.status[j] == stLower {
			dx = s.up[j] - s.lo[j]
			s.status[j] = stUpper
			s.x[j] = s.up[j]
		} else {
			dx = s.lo[j] - s.up[j]
			s.status[j] = stLower
			s.x[j] = s.lo[j]
		}
		if j < n {
			for r := 0; r < m; r++ {
				if v := s.rowView(p, r)[j]; v != 0 {
					s.rowVec[r] += dx * v
				}
			}
		} else {
			s.rowVec[nEq+(j-n)] += dx
		}
	}
	s.stats.BoundFlips += len(s.flips)
	wf := s.ftranRows(s.rowVec)
	for b := 0; b < m; b++ {
		if v := wf[b]; v != 0 {
			s.x[s.varAt[b]] -= v
		}
	}
	s.fresh = false
}

// ftranRows computes B⁻¹·col over basis positions for a stacked-row
// vector col. The frozen factorization handles the B₀ part — the LU solves
// the active rows and the frozen-basic slack positions are row residuals —
// and the eta file is then applied in pivot order (E_i⁻¹ touches only its
// pivot position's multiple of the stored column). It is the one routine
// that applies B⁻¹: ftran feeds it one constraint column, applyFlips the
// combined column of a batch of bound flips.
func (s *RevisedSolver) ftranRows(col []float64) []float64 {
	k := len(s.activeRows)
	m := s.sigEq + s.sigUb
	s.colAct = growF(s.colAct, k)
	s.sol = growF(s.sol, k)
	for a, r := range s.activeRows {
		s.colAct[a] = col[r]
	}
	if k > 0 {
		s.lu.SolveInto(s.sol, s.colAct)
	}
	s.fcol = growF(s.fcol, m)
	copy(s.fcol, s.sol[:k])
	for t, r := range s.inactiveRows {
		s.fcol[k+t] = col[r] - mat.Dot(s.abasic[t*k:(t+1)*k], s.sol[:k])
	}
	for t, pp := range s.etaPos {
		e := s.etaBuf[t*m : (t+1)*m]
		wp := s.fcol[pp] / e[pp]
		if wp != 0 {
			for i := 0; i < m; i++ {
				if i != pp {
					s.fcol[i] -= e[i] * wp
				}
			}
		}
		s.fcol[pp] = wp
	}
	return s.fcol
}

// verify checks the warm result against the original problem: bounds and
// both sides of every row within the scale-aware primal tolerance, and the
// reduced-cost optimality certificate within the dual tolerance. It is the
// exact feasibility/optimality cross-check gating every warm answer;
// failure abandons the attempt, and Solve then tries the crash basis.
func (s *RevisedSolver) verify(p *Problem) bool {
	n, nEq, nUb := s.sigN, s.sigEq, s.sigUb
	for j := 0; j < n; j++ {
		if v, _ := s.violation(j); v > 0 {
			return false
		}
	}
	for r := 0; r < nEq; r++ {
		rv := p.Aeq.RowView(r)
		var sum, scale float64
		for j := 0; j < n; j++ {
			v := rv[j] * s.x[j]
			sum += v
			scale += math.Abs(v)
		}
		if math.Abs(sum-p.Beq[r]) > feasTol*(1+scale+math.Abs(p.Beq[r])) {
			return false
		}
	}
	for r := 0; r < nUb; r++ {
		rv := p.Aub.RowView(r)
		var sum, scale float64
		for j := 0; j < n; j++ {
			v := rv[j] * s.x[j]
			sum += v
			scale += math.Abs(v)
		}
		if sum > p.Bub[r]+feasTol*(1+scale+math.Abs(p.Bub[r])) {
			return false
		}
		if l := p.rowLower(r); sum < l-feasTol*(1+scale+math.Abs(l)) {
			return false
		}
	}
	return s.dualFeasible()
}

// growI8 is growF for status slices.
func growI8(buf []int8, n int) []int8 {
	if cap(buf) < n {
		return make([]int8, n)
	}
	return buf[:n]
}
