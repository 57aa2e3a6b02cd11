package opf

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"gridmtd/internal/dcflow"
	"gridmtd/internal/grid"
	"gridmtd/internal/lp"
	"gridmtd/internal/mat"
)

// DispatchEngine solves the dispatch-only OPF for many reactance vectors
// against one network. It precomputes everything that does not depend on
// the reactances (generator cost/bound vectors, the set of flow-limited
// branches, the bus-to-reduced-column map) and keeps per-goroutine
// workspaces for everything that does (the reduced-susceptance factorizer,
// the PTDF, the LP tableau), so the per-candidate cost of the problem-(4)
// search drops to the unavoidable factorization + simplex work. The
// susceptance factorization goes through the pluggable grid.BFactorizer:
// below grid.SparseThreshold buses the dense backend performs exactly the
// historical arithmetic (costs and dispatches bitwise identical to
// SolveDispatch); at or above it the sparse Cholesky backend takes over
// transparently.
//
// A DispatchEngine is safe for concurrent use.
//
// On the sparse-backend path (grid.EffectiveBackend resolves to
// SparseBackend, i.e. ≥ grid.SparseThreshold buses under AutoBackend) the
// dispatch LP is solved by the warm-started revised simplex
// (lp.RevisedSolver): each workspace keeps the previous solve's optimal
// basis and re-solves the near-identical LPs of one local search from it,
// with dual-simplex recovery and a verified cold fallback. Warm solves
// agree with the flat tableau solver to well under 1e-9 on the objective
// but not bitwise, and the result of a sequence of solves depends on the
// sequence (the basis carries over) — deterministic parallel drivers must
// therefore scope a workspace per worker via NewSession and reset it at
// their determinism boundaries (optimize.MultiStart does this per local
// search). The dense path keeps the historical flat tableau solver and
// stays bitwise identical to SolveDispatch.
type DispatchEngine struct {
	n       *grid.Network
	backend grid.Backend
	warm    bool // sparse path: warm-started revised simplex
	nG      int
	redIdx  []int // reduced state column per generator bus, -1 at slack
	uCols   []int // distinct non-slack entries of redIdx, first-seen order
	giCol   []int // generator → row of the partial PTDF (uCols), -1 at slack
	limRow  []int // branch indices with finite flow limits
	cost    []float64
	genLo   []float64
	genHi   []float64
	aeq     *mat.Dense
	pool    sync.Pool // *dispatchWorkspace

	// Engine-level seed basis (sparse path): the optimal basis of the
	// dispatch LP at the network's reference reactances, computed once on
	// first demand. Solvers with no warm basis of their own start from it
	// instead of a cold tableau solve — the dominant cost of a cold
	// selection (every pooled Cost call and every post-reset session solve
	// used to pay a full two-phase dense-tableau solve). The seed is a pure
	// function of the network, so seeded solves remain pure functions of
	// (loads, x): scheduling, worker count and pool order cannot influence
	// results, which is the determinism contract pooled solves rely on.
	seedOnce sync.Once
	seed     *lp.WarmBasis

	// Dispatch-solve memo (sparse path only): because every fast-path
	// solve is a pure from-seed function of (loads, x), a cache hit is
	// bitwise indistinguishable from recomputing — see SolveCache. nil on
	// the dense path, which keeps its historical bitwise behavior and
	// never consults the cache.
	cache *SolveCache
}

type dispatchWorkspace struct {
	bf      grid.BFactorizer
	ptdf    *mat.Dense // L×(N-1); full-PTDF path only
	pg      *mat.Dense // partial-PTDF path: generator columns, len(uCols)×L
	theta   []float64  // partial-PTDF path: B_r⁻¹·redLoad
	loads   []float64  // bus loads (MW)
	redLoad []float64  // slack-reduced loads
	f0      []float64  // flows of the load-only injection
	aub     *mat.Dense
	bub     []float64
	solver  *lp.Solver        // dense path: historical flat tableau
	rsolver *lp.RevisedSolver // sparse path: warm-started revised simplex
	// Full-solve extras (power-flow verification).
	inj      []float64
	pRed     []float64
	thetaRed []float64
}

// NewDispatchEngine prepares an engine for the network with the
// size-picked factorization backend. The network's topology, limits, costs
// and generator set must not change afterwards; loads are read fresh on
// every solve.
func NewDispatchEngine(n *grid.Network) (*DispatchEngine, error) {
	return NewDispatchEngineBackend(n, grid.AutoBackend)
}

// NewDispatchEngineBackend is NewDispatchEngine with an explicit
// factorization backend (benchmarks and the dense/sparse crossover
// measurements).
func NewDispatchEngineBackend(n *grid.Network, backend grid.Backend) (*DispatchEngine, error) {
	if len(n.Gens) == 0 {
		return nil, errors.New("opf: network has no generators")
	}
	// Snapshot the backend resolution (including any process-wide default
	// override) at construction, so lazily created pool workspaces always
	// match the engine's warm/dense mode.
	eff := grid.EffectiveBackend(n, backend)
	e := &DispatchEngine{
		n:       n,
		backend: eff,
		warm:    eff == grid.SparseBackend,
		nG:      len(n.Gens),
	}
	e.redIdx = make([]int, e.nG)
	e.giCol = make([]int, e.nG)
	seen := make(map[int]int)
	for gi, g := range n.Gens {
		e.redIdx[gi], e.giCol[gi] = -1, -1
		if g.Bus != n.SlackBus {
			idx := g.Bus - 1
			if idx > n.SlackBus-1 {
				idx--
			}
			e.redIdx[gi] = idx
			row, ok := seen[idx]
			if !ok {
				row = len(e.uCols)
				seen[idx] = row
				e.uCols = append(e.uCols, idx)
			}
			e.giCol[gi] = row
		}
	}
	for l, br := range n.Branches {
		if !math.IsInf(br.LimitMW, 1) {
			e.limRow = append(e.limRow, l)
		}
	}
	e.cost = n.GenCosts()
	e.genLo, e.genHi = n.GenBounds()
	e.aeq = mat.NewDenseFrom(1, e.nG, mat.Ones(e.nG))
	nb, nl := n.N(), n.L()
	e.pool.New = func() any {
		w := &dispatchWorkspace{
			bf:       grid.NewBFactorizerBackend(n, e.backend),
			loads:    make([]float64, nb),
			redLoad:  make([]float64, nb-1),
			f0:       make([]float64, nl),
			bub:      make([]float64, 2*len(e.limRow)),
			inj:      make([]float64, nb),
			pRed:     make([]float64, nb-1),
			thetaRed: make([]float64, nb-1),
		}
		if _, ok := w.bf.(grid.PTDFColser); ok {
			// Partial-PTDF path: only the generator columns and one
			// load-flow solve are needed, never the full L×(N-1) matrix.
			w.theta = make([]float64, nb-1)
			if len(e.uCols) > 0 {
				w.pg = mat.NewDense(len(e.uCols), nl)
			}
		} else {
			w.ptdf = mat.NewDense(nl, nb-1)
		}
		if e.warm {
			w.rsolver = lp.NewRevisedSolver()
		} else {
			w.solver = lp.NewSolver()
		}
		if len(e.limRow) > 0 {
			w.aub = mat.NewDense(2*len(e.limRow), e.nG)
		}
		return w
	}
	if e.warm {
		e.cache = newSolveCache(0)
	}
	return e, nil
}

// Backend reports the resolved factorization backend the engine runs on.
func (e *DispatchEngine) Backend() grid.Backend { return e.backend }

// prepare builds the dispatch LP for reactances x into the workspace and
// solves it. It mirrors SolveDispatch step for step on the dense path; the
// sparse path routes the identical LP through the warm-started revised
// simplex.
func (e *DispatchEngine) prepare(w *dispatchWorkspace, x []float64) (*lp.Solution, error) {
	if e.warm && !w.rsolver.HasBasis() {
		w.rsolver.InstallBasis(e.seedBasis())
	}
	return e.prepareUnseeded(w, x)
}

// prepareUnseeded is prepare without the seed-basis installation — the
// path the seed computation itself runs on.
func (e *DispatchEngine) prepareUnseeded(w *dispatchWorkspace, x []float64) (*lp.Solution, error) {
	prob, err := e.buildProblem(w, x)
	if err != nil {
		return nil, err
	}
	var sol *lp.Solution
	if e.warm {
		sol, err = w.rsolver.Solve(prob)
	} else {
		sol, err = w.solver.Solve(prob)
	}
	if err != nil {
		if errors.Is(err, lp.ErrInfeasible) {
			return nil, ErrInfeasible
		}
		return nil, fmt.Errorf("opf: %w", err)
	}
	return sol, nil
}

// buildProblem assembles the dispatch LP for reactances x into the
// workspace buffers (the returned Problem aliases them).
func (e *DispatchEngine) buildProblem(w *dispatchWorkspace, x []float64) (*lp.Problem, error) {
	n := e.n
	// PTDF = D·Arᵀ·Br⁻¹ through the factorization backend (the dense
	// backend reproduces Network.PTDF's construction bitwise).
	if err := w.bf.Reset(x); err != nil {
		return nil, fmt.Errorf("opf: PTDF: %w", err)
	}
	s := n.SlackBus - 1

	// Reduced load vector (MW).
	for i, b := range n.Buses {
		w.loads[i] = b.LoadMW
	}
	reduceInto(w.redLoad, w.loads, s)

	// Load flows f0 and the generator PTDF columns. The LP never reads
	// any other part of the PTDF, so a backend that can deliver single
	// columns (PTDFColser) pays one solve per distinct generator bus plus
	// one for the loads — instead of all N-1 inverse columns. The dense
	// path keeps the full historical build (its bitwise contract).
	pc, fast := w.bf.(grid.PTDFColser)
	if fast {
		w.bf.SolveInto(w.theta, w.redLoad)
		for l, br := range n.Branches {
			ri := reducedBusIndex(br.From-1, s)
			rj := reducedBusIndex(br.To-1, s)
			y := 1 / x[l]
			switch {
			case ri >= 0 && rj >= 0:
				w.f0[l] = y * (w.theta[ri] - w.theta[rj])
			case ri >= 0:
				w.f0[l] = y * w.theta[ri]
			default:
				w.f0[l] = -y * w.theta[rj]
			}
		}
		if w.pg != nil {
			if err := pc.PTDFColsInto(w.pg, e.uCols); err != nil {
				return nil, fmt.Errorf("opf: PTDF: %w", err)
			}
		}
	} else {
		if err := w.bf.PTDFInto(w.ptdf); err != nil {
			return nil, fmt.Errorf("opf: PTDF: %w", err)
		}
		mat.MulVecInto(w.f0, w.ptdf, w.redLoad)
	}

	// Inequalities: S·g − f0 <= fmax and −S·g + f0 <= fmax, skipping
	// unlimited branches. S maps dispatch to flows — column g is the PTDF
	// column of the generator's reduced bus index (zero if it sits at
	// slack), identical to applying the PTDF to the unit injection — and
	// its rows land straight in Aub without a dense intermediate.
	nR := len(e.limRow)
	if nR > 0 {
		for k, l := range e.limRow {
			pos := w.aub.RowView(k)
			neg := w.aub.RowView(nR + k)
			if fast {
				for gi := 0; gi < e.nG; gi++ {
					v := 0.0
					if r := e.giCol[gi]; r >= 0 {
						v = w.pg.RowView(r)[l]
					}
					pos[gi] = v
					neg[gi] = -v
				}
			} else {
				pr := w.ptdf.RowView(l)
				for gi := 0; gi < e.nG; gi++ {
					v := 0.0
					if ri := e.redIdx[gi]; ri >= 0 {
						v = pr[ri]
					}
					pos[gi] = v
					neg[gi] = -v
				}
			}
			w.bub[k] = n.Branches[l].LimitMW + w.f0[l]
			w.bub[nR+k] = n.Branches[l].LimitMW - w.f0[l]
		}
	}

	prob := &lp.Problem{
		C:     e.cost,
		Aeq:   e.aeq,
		Beq:   []float64{n.TotalLoadMW()},
		Lower: e.genLo,
		Upper: e.genHi,
	}
	if nR > 0 {
		prob.Aub = w.aub
		prob.Bub = w.bub
	}
	return prob, nil
}

// Cost returns the optimal generation cost ($/h) for reactances x without
// materializing flows and angles — the form the selection search's inner
// loop wants. The value is bitwise identical to Solve(x).CostPerHour.
//
// Pooled solves never reuse another solve's warm basis: sync.Pool hands
// out workspaces in a scheduling- and GC-dependent order, so any warm
// state carried across pooled calls would make results depend on that
// order. Each pooled solve instead starts from the engine's fixed seed
// basis (see seedBasis) — a pure function of the network — which keeps
// every engine-level solve a pure function of (loads, x) while skipping
// the cold tableau solve. Per-candidate warm chaining stays with the
// explicitly scoped per-worker sessions.
func (e *DispatchEngine) Cost(x []float64) (float64, error) {
	if e.cache != nil {
		return e.cachedCost(nil, x)
	}
	w := e.pool.Get().(*dispatchWorkspace)
	w.dropWarmStart()
	sol, err := e.prepare(w, x)
	e.pool.Put(w)
	if err != nil {
		return 0, err
	}
	return sol.Objective, nil
}

// CostUpperBound returns an upper bound on Cost over every reactance
// vector: Σ_i max(c_i·g_i^lo, c_i·g_i^hi), the worst any within-bounds
// dispatch can cost. Searches use it to skip dispatch solves at points
// whose penalty terms already exceed any cost the solve could contribute.
func (e *DispatchEngine) CostUpperBound() float64 {
	ub := 0.0
	for i, c := range e.cost {
		ub += math.Max(c*e.genLo[i], c*e.genHi[i])
	}
	return ub
}

// Solve returns the full OPF result for reactances x, including the
// verifying DC power flow, exactly as SolveDispatch does. Like Cost, a
// pooled solve starts from the engine's fixed seed basis, never another
// solve's warm state.
func (e *DispatchEngine) Solve(x []float64) (*Result, error) {
	w := e.pool.Get().(*dispatchWorkspace)
	defer e.pool.Put(w)
	if e.cache != nil {
		return e.cachedSolve(w, x)
	}
	w.dropWarmStart()
	return e.solve(w, x)
}

// cachedCost returns the memoized LP objective for the current (loads, x),
// computing it on the caller's workspace (or a pooled one when w is nil)
// on a miss. See SolveCache for why a hit is bitwise equivalent to a
// fresh solve.
func (e *DispatchEngine) cachedCost(w *dispatchWorkspace, x []float64) (float64, error) {
	ent, ok := e.cache.entry(e.solveKey(x))
	first := e.computeEntry(ent, w, x)
	countSolveLookup(first, ok)
	if ent.err != nil {
		return 0, ent.err
	}
	return ent.obj, nil
}

// cachedSolve is Solve through the memo: the LP comes from the cache (or
// one shared computation on a miss); only the verifying DC power flow —
// which needs this workspace's factorization at x — runs per call.
func (e *DispatchEngine) cachedSolve(w *dispatchWorkspace, x []float64) (*Result, error) {
	ent, ok := e.cache.entry(e.solveKey(x))
	first := e.computeEntry(ent, w, x)
	countSolveLookup(first, ok)
	if ent.err != nil {
		return nil, ent.err
	}
	if !first {
		// The LP ran in some earlier call: w.bf does not hold x's
		// factorization, which the verifying power flow below needs.
		if err := w.bf.Reset(x); err != nil {
			return nil, fmt.Errorf("opf: PTDF: %w", err)
		}
	}
	return e.verifiedResult(w, x, append([]float64(nil), ent.x...), ent.obj)
}

// computeEntry runs the entry's single LP solve if nobody has yet: a pure
// from-seed solve of (loads, x) on the caller's workspace, or on a pooled
// workspace when w is nil. It reports whether this call did the work (in
// which case w's factorizer holds x when w was supplied).
func (e *DispatchEngine) computeEntry(ent *solveEntry, w *dispatchWorkspace, x []float64) (first bool) {
	ent.once.Do(func() {
		first = true
		ws := w
		if ws == nil {
			ws = e.pool.Get().(*dispatchWorkspace)
			defer e.pool.Put(ws)
		}
		ws.dropWarmStart()
		sol, err := e.prepare(ws, x)
		if err != nil {
			ent.err = err
			return
		}
		ent.obj = sol.Objective
		ent.x = append([]float64(nil), sol.X...)
	})
	return first
}

// countSolveLookup attributes one cache lookup to the process-wide
// counters: a lookup that found a computed entry is a hit, anything else
// (created the entry, or did/shared the computation) is a miss.
func countSolveLookup(first, existed bool) {
	if first || !existed {
		solveGlobal.misses.Add(1)
	} else {
		solveGlobal.hits.Add(1)
	}
}

// dropWarmStart discards the workspace's warm LP basis (no-op on the
// dense path).
func (w *dispatchWorkspace) dropWarmStart() {
	if w.rsolver != nil {
		w.rsolver.Invalidate()
	}
}

// seedBasis returns the engine-level seed basis, computing it on first
// demand: one cold solve of the dispatch LP at the network's reference
// reactances on a private workspace, whose optimal basis every subsequent
// basis-less solve starts from. Returns nil on the dense path or when the
// reference LP cannot be solved (each later solve then runs cold exactly
// as before).
func (e *DispatchEngine) seedBasis() *lp.WarmBasis {
	if !e.warm {
		return nil
	}
	e.seedOnce.Do(func() {
		w := e.pool.New().(*dispatchWorkspace)
		if _, err := e.prepareUnseeded(w, e.n.Reactances()); err == nil {
			e.seed = w.rsolver.CaptureBasis()
		}
		w.dropWarmStart()
		e.pool.Put(w)
	})
	return e.seed
}

// solve is Solve against an explicit workspace.
func (e *DispatchEngine) solve(w *dispatchWorkspace, x []float64) (*Result, error) {
	sol, err := e.prepare(w, x)
	if err != nil {
		return nil, err
	}
	return e.verifiedResult(w, x, sol.X, sol.Objective)
}

// verifiedResult runs the verifying DC power flow for an already-solved
// dispatch and assembles the Result. w.bf must hold the factorization of
// x (buildProblem leaves it there; the cache-hit path re-resets it).
func (e *DispatchEngine) verifiedResult(w *dispatchWorkspace, x, dispatch []float64, obj float64) (*Result, error) {
	n := e.n

	// Verifying power flow (dcflow.SolveDispatch, reusing the factors of
	// the same reduced susceptance matrix).
	for i, b := range n.Buses {
		w.inj[i] = -b.LoadMW
	}
	for i, g := range n.Gens {
		w.inj[g.Bus-1] += dispatch[i]
	}
	total := mat.SumVec(w.inj)
	if math.Abs(total) > 1e-6*(1+mat.Norm1(w.inj)) {
		return nil, fmt.Errorf("opf: verifying dispatch: %w: imbalance %.6g MW", dcflow.ErrUnbalanced, total)
	}
	slack := n.SlackBus - 1
	invBase := 1 / n.BaseMVA // multiply, as dcflow's ScaleVec does
	for i := range w.inj {
		w.inj[i] *= invBase
	}
	reduceInto(w.pRed, w.inj, slack)
	w.bf.SolveInto(w.thetaRed, w.pRed)
	theta := n.ExpandVec(w.thetaRed, 0)
	flows := make([]float64, n.L())
	for l, br := range n.Branches {
		flows[l] = (theta[br.From-1] - theta[br.To-1]) / x[l] * n.BaseMVA
	}
	return &Result{
		DispatchMW:  dispatch,
		FlowsMW:     flows,
		ThetaRad:    theta,
		CostPerHour: obj,
		Reactances:  mat.CopyVec(x),
	}, nil
}

// DispatchSession is a single-goroutine view of a DispatchEngine: it owns
// one workspace outright instead of borrowing from the pool per call. The
// parallel multi-start driver holds one session per worker (no pool churn)
// and, on the sparse path, the session is where the warm LP basis lives —
// ResetWarmStart scopes it to one local search so results stay independent
// of how starts are distributed across workers. A DispatchSession is not
// safe for concurrent use.
type DispatchSession struct {
	e *DispatchEngine
	w *dispatchWorkspace
}

// NewSession returns a fresh session with its own workspace.
func (e *DispatchEngine) NewSession() *DispatchSession {
	return &DispatchSession{e: e, w: e.pool.New().(*dispatchWorkspace)}
}

// Cost is DispatchEngine.Cost on the session's private workspace. On the
// sparse path it serves from the engine's shared SolveCache: every miss
// is a pure from-seed solve of (loads, x), so hits are bitwise equivalent
// and session results no longer depend on the session's solve history.
func (s *DispatchSession) Cost(x []float64) (float64, error) {
	if s.e.cache != nil {
		return s.e.cachedCost(s.w, x)
	}
	sol, err := s.e.prepare(s.w, x)
	if err != nil {
		return 0, err
	}
	return sol.Objective, nil
}

// Solve is DispatchEngine.Solve on the session's private workspace.
func (s *DispatchSession) Solve(x []float64) (*Result, error) {
	if s.e.cache != nil {
		return s.e.cachedSolve(s.w, x)
	}
	return s.e.solve(s.w, x)
}

// ResetWarmStart drops the session's warm LP basis and its Farkas-ray
// index (a no-op on the dense path): the next solve starts from the
// engine's fixed seed basis (cold when the engine has none) with no
// recycled certificates. Deterministic drivers call it at their
// reproducibility boundaries — one local search per warm scope; because
// the seed is a pure function of the network, the post-reset state, and
// with it the search's solve and pre-screen counts, are identical however
// starts are distributed across workers.
func (s *DispatchSession) ResetWarmStart() {
	if s.w.rsolver != nil {
		s.w.rsolver.Invalidate()
		s.w.rsolver.DropRays()
	}
}

// LPStats reports the session's revised-simplex counters (zero value on
// the dense path).
func (s *DispatchSession) LPStats() lp.RevisedStats {
	if s.w.rsolver == nil {
		return lp.RevisedStats{}
	}
	return s.w.rsolver.Stats()
}

// reducedBusIndex maps a 0-based bus index to its slack-reduced state
// column, or -1 for the slack bus itself.
func reducedBusIndex(bus, slack int) int {
	switch {
	case bus == slack:
		return -1
	case bus > slack:
		return bus - 1
	}
	return bus
}

// reduceInto removes the slack entry of the length-N vector v into dst.
func reduceInto(dst, v []float64, slack int) {
	k := 0
	for i, x := range v {
		if i == slack {
			continue
		}
		dst[k] = x
		k++
	}
}
