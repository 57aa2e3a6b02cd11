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
	"gridmtd/internal/memo"
)

// DispatchEngine solves the dispatch-only OPF for many reactance vectors
// against one network. It precomputes everything that does not depend on
// the reactances (generator cost/bound vectors, the set of flow-limited
// branches, the bus-to-reduced-column map) and keeps per-goroutine
// workspaces for everything that does (the reduced-susceptance factorizer,
// the PTDF, the LP tableau), so the per-candidate cost of the problem-(4)
// search drops to the unavoidable factorization + simplex work. B_r's
// topology-only analysis (grid.BAnalysis: on the sparse backend the
// fill-reducing order, elimination tree and pattern of L) runs once, at
// construction, and every workspace's factorizer shares it and only
// refactors. The susceptance factorization goes through the pluggable
// grid.BFactorizer:
// below grid.SparseThreshold buses the dense backend performs exactly the
// historical arithmetic (costs and dispatches bitwise identical to
// SolveDispatch); at or above it the sparse Cholesky backend takes over
// transparently.
//
// A DispatchEngine is safe for concurrent use.
//
// On the sparse-backend path (grid.EffectiveBackend resolves to
// SparseBackend, i.e. ≥ grid.SparseThreshold buses under AutoBackend) the
// dispatch LP is solved by the revised simplex (lp.RevisedSolver), started
// on every solve from the engine's seed basis, with dual-simplex recovery
// and a verified cold fallback. Its objectives agree with the flat tableau
// solver to well under 1e-9 but not bitwise. The dense path keeps the
// historical flat tableau solver and stays bitwise identical to
// SolveDispatch. No solve carries an LP basis from an earlier one, so on
// both paths every solve is a pure function of (loads, x), and the engine
// memoizes it (see lookup).
type DispatchEngine struct {
	n       *grid.Network
	backend grid.Backend
	bAn     *grid.BAnalysis // B_r's symbolic analysis, shared by every workspace's factorizer
	warm    bool            // sparse path: seeded revised simplex
	nG      int
	redIdx  []int    // reduced state column per generator bus, -1 at slack
	uCols   []int    // distinct non-slack entries of redIdx, first-seen order
	giCol   []int    // generator → column of the PTDF block (uCols), -1 at slack
	limRow  []int    // branch indices with finite flow limits
	limEnds [][2]int // reduced from/to bus of each limRow branch, -1 at slack
	cost    []float64
	genLo   []float64
	genHi   []float64
	aeq     *mat.Dense
	pool    sync.Pool // *dispatchWorkspace

	// Engine-level seed basis (sparse path): the optimal basis of the
	// dispatch LP at the network's reference reactances, computed once on
	// first demand. Every solve starts from it instead of the crash basis,
	// which takes more dual pivots to reach the optimum (the pinned ieee118
	// selection: 160 instead of 97). The seed is a pure function of the
	// network, so seeded solves remain pure functions of (loads, x):
	// scheduling, worker count and pool order cannot influence results.
	seedOnce sync.Once
	seed     *lp.WarmBasis

	cache *memo.LRU[string, solved] // dispatch-solve memo, see lookup
}

type dispatchWorkspace struct {
	bf      grid.BFactorizer
	ptdf    *mat.Dense // L×(N-1); full-PTDF path only
	f0      []float64  // full-PTDF path: flows of the load-only injection
	blk     []float64  // block path: B_r⁻¹·[e_uCols, redLoad], (N-1)×(len(uCols)+1)
	blkTmp  []float64  // block path: solve scratch
	blkRow  []float64  // block path: one branch's flows over the block's columns
	loads   []float64  // bus loads (MW)
	redLoad []float64  // slack-reduced loads
	aub     *mat.Dense
	bub     []float64
	lub     []float64
	solver  *lp.Solver        // dense path: historical flat tableau
	rsolver *lp.RevisedSolver // sparse path: seeded revised simplex
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
	// Analyze B_r once (and with it snapshot the backend resolution,
	// including any process-wide default override), so lazily created
	// pool workspaces share one symbolic factorization and always match
	// the engine's warm/dense mode.
	bAn := grid.AnalyzeB(n, backend)
	eff := bAn.Backend()
	e := &DispatchEngine{
		n:       n,
		backend: eff,
		bAn:     bAn,
		warm:    eff == grid.SparseBackend,
		nG:      len(n.Gens),
		cache:   memo.New[string, solved](solveCacheCap, nil),
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
	s := n.SlackBus - 1
	for l, br := range n.Branches {
		if !math.IsInf(br.LimitMW, 1) {
			e.limRow = append(e.limRow, l)
			e.limEnds = append(e.limEnds, [2]int{reducedBusIndex(br.From-1, s), reducedBusIndex(br.To-1, s)})
		}
	}
	e.cost = n.GenCosts()
	e.genLo, e.genHi = n.GenBounds()
	e.aeq = mat.NewDenseFrom(1, e.nG, mat.Ones(e.nG))
	nb, nl := n.N(), n.L()
	e.pool.New = func() any {
		w := &dispatchWorkspace{
			bf:       bAn.NewFactorizer(),
			loads:    make([]float64, nb),
			redLoad:  make([]float64, nb-1),
			bub:      make([]float64, len(e.limRow)),
			lub:      make([]float64, len(e.limRow)),
			inj:      make([]float64, nb),
			pRed:     make([]float64, nb-1),
			thetaRed: make([]float64, nb-1),
		}
		if _, ok := w.bf.(grid.BlockSolver); ok {
			// Block path: only the generator columns and one load flow
			// are needed, never the full L×(N-1) matrix.
			w.blk = make([]float64, (nb-1)*(len(e.uCols)+1))
			w.blkTmp = make([]float64, len(w.blk))
			w.blkRow = make([]float64, len(e.uCols)+1)
		} else {
			w.ptdf = mat.NewDense(nl, nb-1)
			w.f0 = make([]float64, nl)
		}
		if e.warm {
			w.rsolver = lp.NewRevisedSolver()
		} else {
			w.solver = lp.NewSolver()
		}
		if len(e.limRow) > 0 {
			w.aub = mat.NewDense(len(e.limRow), e.nG)
		}
		return w
	}
	return e, nil
}

// Backend reports the resolved factorization backend the engine runs on.
func (e *DispatchEngine) Backend() grid.Backend { return e.backend }

// Network returns the network the engine solves.
func (e *DispatchEngine) Network() *grid.Network { return e.n }

// prepare builds the dispatch LP for reactances x into the workspace and
// solves it. It mirrors SolveDispatch step for step on the dense path; the
// sparse path routes the identical LP through the revised simplex, started
// from start (the engine's seed basis, or nil for the seed LP itself)
// whatever the workspace solved before.
func (e *DispatchEngine) prepare(w *dispatchWorkspace, x []float64, start *lp.WarmBasis) (*lp.Solution, error) {
	prob, err := e.buildProblem(w, x)
	if err != nil {
		return nil, err
	}
	var sol *lp.Solution
	if e.warm {
		sol, err = w.rsolver.Solve(prob, start)
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

	// Load flows and the generator PTDF columns. The LP never reads any
	// other part of the PTDF, so a backend that solves blocks
	// (BlockSolver) pays one blocked solve for the distinct generator
	// buses and the loads — instead of all N-1 inverse columns. The dense
	// path keeps the full historical build (its bitwise contract).
	bs, fast := w.bf.(grid.BlockSolver)
	u := len(e.uCols)
	m := u + 1
	if fast {
		for i := range w.blk {
			w.blk[i] = 0
		}
		for j, c := range e.uCols {
			w.blk[c*m+j] = 1
		}
		for i, v := range w.redLoad {
			w.blk[i*m+u] = v
		}
		if err := bs.SolveRowsInto(w.blk, m, w.blkTmp); err != nil {
			return nil, fmt.Errorf("opf: PTDF: %w", err)
		}
	} else {
		if err := w.bf.PTDFInto(w.ptdf); err != nil {
			return nil, fmt.Errorf("opf: PTDF: %w", err)
		}
		mat.MulVecInto(w.f0, w.ptdf, w.redLoad)
	}

	// Inequalities: one ranged row f0 − fmax <= S·g <= fmax + f0 per
	// limited branch, skipping unlimited branches; the flat tableau
	// expands it into the historical pair S·g − f0 <= fmax and
	// −S·g + f0 <= fmax. S maps dispatch to flows — column g is the PTDF
	// column of the generator's reduced bus index (zero if it sits at
	// slack), identical to applying the PTDF to the unit injection — and
	// its rows land straight in Aub without a dense intermediate. On the
	// block path branch l's flows over the solved block X are one pass
	// (1/x_l)·(X[ri] − X[rj]): the generators gather their columns and
	// the loads' column gives f0.
	for k, l := range e.limRow {
		pos := w.aub.RowView(k)
		var f0 float64
		if fast {
			row := w.blkRow
			branchFlowsInto(row, 1/x[l], w.blk, m, e.limEnds[k])
			for gi, c := range e.giCol {
				v := 0.0
				if c >= 0 {
					v = row[c]
				}
				pos[gi] = v
			}
			f0 = row[u]
		} else {
			pr := w.ptdf.RowView(l)
			for gi := 0; gi < e.nG; gi++ {
				v := 0.0
				if ri := e.redIdx[gi]; ri >= 0 {
					v = pr[ri]
				}
				pos[gi] = v
			}
			f0 = w.f0[l]
		}
		w.bub[k] = n.Branches[l].LimitMW + f0
		w.lub[k] = f0 - n.Branches[l].LimitMW
	}

	prob := &lp.Problem{
		C:     e.cost,
		Aeq:   e.aeq,
		Beq:   []float64{n.TotalLoadMW()},
		Lower: e.genLo,
		Upper: e.genHi,
	}
	if len(e.limRow) > 0 {
		prob.Aub = w.aub
		prob.Bub = w.bub
		prob.Lub = w.lub
	}
	return prob, nil
}

// Cost returns the optimal generation cost ($/h) for reactances x without
// materializing flows and angles — the form the selection search's inner
// loop wants. The value is bitwise identical to Solve(x).CostPerHour.
func (e *DispatchEngine) Cost(x []float64) (float64, error) {
	r, _, err := e.lookup(nil, x)
	return r.obj, err
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
// verifying DC power flow, exactly as SolveDispatch does.
func (e *DispatchEngine) Solve(x []float64) (*Result, error) {
	w := e.pooled()
	defer e.pool.Put(w)
	return e.solveOn(w, x)
}

// solveOn is Solve on workspace w: the LP comes from the memo; only the
// verifying DC power flow — which needs w's factorization at x — runs per
// call.
func (e *DispatchEngine) solveOn(w *dispatchWorkspace, x []float64) (*Result, error) {
	r, computed, err := e.lookup(w, x)
	if err != nil {
		return nil, err
	}
	if !computed {
		// The LP ran in some earlier call: w.bf does not hold x's
		// factorization, which the verifying power flow below needs.
		if err := w.bf.Reset(x); err != nil {
			return nil, fmt.Errorf("opf: PTDF: %w", err)
		}
	}
	return e.verifiedResult(w, x, append([]float64(nil), r.x...), r.obj)
}

// pooled takes a workspace from the pool with an empty Farkas-ray index:
// sync.Pool hands workspaces out in a scheduling- and GC-dependent order,
// so rays recycled from another caller's solves would make the pre-screen
// work depend on that order.
func (e *DispatchEngine) pooled() *dispatchWorkspace {
	w := e.pool.Get().(*dispatchWorkspace)
	if w.rsolver != nil {
		w.rsolver.DropRays()
	}
	return w
}

// seedBasis returns the engine-level seed basis, computing it on first
// demand: one solve of the dispatch LP at the network's reference
// reactances from the crash basis on a private workspace, whose optimal
// basis every later solve starts from. Returns nil on the dense path, when
// the reference LP cannot be solved, or when it was solved on the flat
// tableau (each later solve then starts from the crash basis).
func (e *DispatchEngine) seedBasis() *lp.WarmBasis {
	if !e.warm {
		return nil
	}
	e.seedOnce.Do(func() {
		w := e.pool.New().(*dispatchWorkspace)
		if _, err := e.prepare(w, e.n.Reactances(), nil); err == nil {
			e.seed = w.rsolver.CaptureBasis()
		}
		e.pool.Put(w)
	})
	return e.seed
}

// verifiedResult runs the verifying DC power flow for an already-solved
// dispatch and assembles the Result. w.bf must hold the factorization of
// x (buildProblem leaves it there; solveOn re-resets it on a memo hit).
func (e *DispatchEngine) verifiedResult(w *dispatchWorkspace, x, dispatch []float64, obj float64) (*Result, error) {
	n := e.n

	// Verifying power flow (dcflow.Solve at the dispatch's injections,
	// reusing the factors of the same reduced susceptance matrix).
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
// parallel multi-start driver holds one session per worker (no pool churn),
// and on the sparse path the session's Farkas-ray index is what carries
// across its Cost calls — DropRays scopes it to one local search. A
// session carries no LP basis: like a pooled solve, each Cost starts from
// the engine's seed basis and is served through the engine's memo. A
// DispatchSession is not safe for concurrent use.
type DispatchSession struct {
	e *DispatchEngine
	w *dispatchWorkspace
}

// NewSession returns a fresh session with its own workspace.
func (e *DispatchEngine) NewSession() *DispatchSession {
	return &DispatchSession{e: e, w: e.pool.New().(*dispatchWorkspace)}
}

// Cost is DispatchEngine.Cost, solving a memo miss on the session's
// private workspace.
func (s *DispatchSession) Cost(x []float64) (float64, error) {
	r, _, err := s.e.lookup(s.w, x)
	return r.obj, err
}

// BuildProblem assembles the dispatch LP for reactances x on the
// session's workspace without solving it: the per-candidate build every
// solve starts with. The Problem aliases the workspace and is valid until
// the session's next call.
func (s *DispatchSession) BuildProblem(x []float64) (*lp.Problem, error) {
	return s.e.buildProblem(s.w, x)
}

// DropRays drops the session's Farkas-ray index (a no-op on the dense
// path), the only solver state a session carries from one solve to the
// next: the next solve recycles no certificates. Deterministic drivers
// call it at their reproducibility boundaries — one local search per
// scope — so the search's solve and pre-screen counts are identical
// however starts are distributed across workers.
func (s *DispatchSession) DropRays() {
	if s.w.rsolver != nil {
		s.w.rsolver.DropRays()
	}
}

// branchFlowsInto writes y·(X[ri] − X[rj]) into dst: the flows on a branch
// of admittance y for every column of the row-major block X (m columns),
// whose rows ri and rj are the branch's reduced end buses. A -1 end is the
// slack bus and its term is omitted.
func branchFlowsInto(dst []float64, y float64, blk []float64, m int, ends [2]int) {
	ri, rj := ends[0], ends[1]
	switch {
	case ri < 0:
		for c, v := range blk[rj*m : (rj+1)*m] {
			dst[c] = -y * v
		}
	case rj < 0:
		for c, v := range blk[ri*m : (ri+1)*m] {
			dst[c] = y * v
		}
	default:
		rb := blk[rj*m : (rj+1)*m]
		for c, v := range blk[ri*m : (ri+1)*m] {
			dst[c] = y * (v - rb[c])
		}
	}
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
