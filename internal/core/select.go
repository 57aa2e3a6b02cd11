package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"gridmtd/internal/grid"
	"gridmtd/internal/opf"
	"gridmtd/internal/optimize"
	"gridmtd/internal/par"
)

// ErrNoDFACTS is returned when a selection routine runs on a network
// without any D-FACTS devices.
var ErrNoDFACTS = errors.New("core: network has no D-FACTS devices")

// ErrConstraintUnreachable is returned by SelectMTD when no reactance
// setting within the D-FACTS limits achieves the requested γ threshold.
var ErrConstraintUnreachable = errors.New("core: gamma threshold unreachable within D-FACTS limits")

// Selection is a chosen MTD perturbation together with its metrics.
type Selection struct {
	// Reactances is the full post-MTD branch reactance vector x'.
	Reactances []float64
	// OPF is the optimal dispatch under the chosen reactances.
	OPF *opf.Result
	// Gamma is the achieved separation γ(H(xOld), H(x')).
	Gamma float64
	// CostIncrease is C_MTD: the relative OPF cost increase over the
	// no-MTD optimum at the same loads (paper equation (3)).
	CostIncrease float64
	// BaselineCost is the no-MTD OPF cost C_OPF,t' used as reference: the
	// cost of problem (1) — dispatch AND D-FACTS reactances optimized
	// without any γ constraint.
	BaselineCost float64
}

// SelectConfig tunes the problem-(4) search.
type SelectConfig struct {
	// GammaThreshold is γ_th in constraint (4b).
	GammaThreshold float64
	// Starts is the number of multi-start points (default 8).
	Starts int
	// Seed seeds the multi-start sampler.
	Seed int64
	// MaxEvals bounds objective evaluations per local search (default
	// 80 × #D-FACTS branches).
	MaxEvals int
	// PenaltyMu weights the quadratic γ-constraint penalty (default 1e10,
	// large relative to $-scale OPF costs).
	PenaltyMu float64
	// GammaTol is the tolerated constraint slack when validating the
	// result (default 2e-3 rad).
	GammaTol float64
	// BaselineCost, when positive, is used as the no-MTD reference cost
	// C_OPF,t' instead of solving problem (1) internally. Callers running
	// many selections against the same loads (tradeoff sweeps, the daily
	// simulation) should compute it once via NoMTDCost.
	BaselineCost float64
	// WarmStarts are additional D-FACTS starting points for the search
	// (e.g. the previous γ-threshold's solution during a sweep).
	WarmStarts [][]float64
}

func (c SelectConfig) withDefaults(dim int) SelectConfig {
	if c.Starts <= 0 {
		c.Starts = 8
	}
	if c.MaxEvals <= 0 {
		c.MaxEvals = 80 * dim
	}
	if c.PenaltyMu <= 0 {
		c.PenaltyMu = 1e10
	}
	if c.GammaTol <= 0 {
		c.GammaTol = 2e-3
	}
	return c
}

// NoMTDCost returns C_OPF,t': the generation cost of problem (1) at the
// network's current loads with dispatch and D-FACTS reactances free — the
// reference against which the MTD operational cost is measured.
func NoMTDCost(n *grid.Network, starts int, seed int64) (float64, error) {
	res, err := opf.SolveDFACTS(n, opf.DFACTSConfig{Starts: starts, Seed: seed})
	if err != nil {
		return 0, fmt.Errorf("core: no-MTD baseline OPF: %w", err)
	}
	return res.CostPerHour, nil
}

// SelectMTD solves the paper's problem (4): choose the D-FACTS reactance
// vector x' minimizing the OPF generation cost at the network's current
// loads subject to γ(H(xOld), H(x')) ≥ γ_th and the device/network limits.
// xOld is the (attacker-known) pre-perturbation reactance vector — with
// hourly MTD it reflects loads one interval old, while cost is evaluated at
// the current loads, exactly as in Section VI.
func SelectMTD(n *grid.Network, xOld []float64, cfg SelectConfig) (*Selection, error) {
	de, err := newDispatchEngine(n)
	if err != nil {
		return nil, err
	}
	return SelectMTDWith(NewEnginesShared(NewGammaEvaluator(n, xOld), de), n, xOld, cfg)
}

// Engines bundles the cached evaluators one pre-perturbation configuration
// needs: the γ-evaluation engine keyed by x_old and the dispatch-OPF
// engine. Callers running several searches against the same x_old (the
// γ-threshold bisection, a γ sweep, the planner service) build the bundle
// once. A caller that also evaluates attacks against x_old passes the
// attack set's evaluator (AttackSet.Gamma), so x_old is prepared once; a
// batched driver passes the dispatch engine it already holds for the case.
type Engines struct {
	gamma    *GammaEvaluator
	dispatch *opf.DispatchEngine
}

// NewEnginesShared bundles a γ evaluator keyed by x_old with a dispatch
// engine built for the same network.
func NewEnginesShared(gamma *GammaEvaluator, dispatch *opf.DispatchEngine) *Engines {
	return &Engines{gamma: gamma, dispatch: dispatch}
}

// NewEnginesSharedBackend builds a fresh γ evaluator for xOld and bundles
// it with dispatch; the γ-backend name is ignored (every name is an alias
// of the exact evaluator).
func NewEnginesSharedBackend(n *grid.Network, xOld []float64, dispatch *opf.DispatchEngine, _ GammaBackend) *Engines {
	return NewEnginesShared(NewGammaEvaluator(n, xOld), dispatch)
}

// newDispatchEngine builds the dispatch-OPF engine of the one-shot entry
// points (SelectMTD, MaxGamma, TuneGammaThreshold).
func newDispatchEngine(n *grid.Network) (*opf.DispatchEngine, error) {
	de, err := opf.NewDispatchEngine(n)
	if err != nil {
		return nil, fmt.Errorf("core: dispatch engine: %w", err)
	}
	return de, nil
}

// Gamma exposes the bundle's γ evaluator (keyed by the xOld the bundle was
// built for).
func (e *Engines) Gamma() *GammaEvaluator { return e.gamma }

// SelectMTDWith is SelectMTD against a pre-built evaluator bundle (whose γ
// engine must be keyed by the same xOld).
func SelectMTDWith(eng *Engines, n *grid.Network, xOld []float64, cfg SelectConfig) (*Selection, error) {
	idx := n.DFACTSIndices()
	if len(idx) == 0 {
		return nil, ErrNoDFACTS
	}
	cfg = cfg.withDefaults(len(idx))
	// γ is an angle in [0, π/2], so the final check below rejects every
	// result at such a threshold; skip the baseline solve and the search.
	if cfg.GammaThreshold-cfg.GammaTol > math.Pi/2 {
		return nil, fmt.Errorf("%w: threshold %.4f exceeds π/2", ErrConstraintUnreachable, cfg.GammaThreshold)
	}

	baselineCost := cfg.BaselineCost
	if baselineCost <= 0 {
		var err error
		baselineCost, err = NoMTDCost(n, cfg.Starts, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}

	// Each multi-start worker gets its own engine sessions (no pool churn
	// per evaluation) and, on the sparse path, its own Farkas-ray index.
	// The reset hook scopes the rays to one local search, so the solve
	// counts, like the selected MTD, are identical for every worker count.
	// The driver-level objective is built by the same factory, so there is
	// exactly one definition.
	newWorker := func() (optimize.Objective, func()) {
		gs := eng.gamma.NewSession()
		ds := eng.dispatch.NewSession()
		costOf := func(xd []float64) float64 {
			cost, err := ds.Cost(n.ExpandDFACTS(xd))
			if err != nil {
				return optimize.InfeasibleObjective
			}
			return cost
		}
		cons := []optimize.Constraint{
			func(xd []float64) float64 { return cfg.GammaThreshold - gs.GammaDFACTS(xd) },
		}
		reset := ds.DropRays
		if eng.dispatch.Backend() == grid.SparseBackend {
			// Lazy-penalty skip (sparse path only): evaluate the γ
			// constraint first and skip the dispatch solve entirely at
			// γ-infeasible points, scoring them penalty + CostUpperBound
			// — the most ANY dispatch solve could have added. Every
			// γ-feasible point scores below costUB, so no skipped point
			// can ever displace one as the returned minimum; and with
			// the default μ = 1e10 the penalty term dominates the
			// objective landscape at any meaningful violation anyway, so
			// the skip only deprives the search of cost detail the
			// penalty had already drowned out. The surrogate is a pure
			// function of xd, so determinism and worker-count invariance
			// are untouched; the winner is still validated by exact γ
			// and a full dispatch solve below. The dense path keeps the
			// historical Penalized objective bitwise.
			costUB := eng.dispatch.CostUpperBound()
			gammaCons := cons[0]
			return func(xd []float64) float64 {
				viol := gammaCons(xd)
				if viol <= 0 {
					return costOf(xd)
				}
				return cfg.PenaltyMu*viol*viol + costUB
			}, reset
		}
		return optimize.Penalized(costOf, cons, cfg.PenaltyMu), reset
	}
	obj, _ := newWorker()

	lo, hi := n.DFACTSBounds()
	box := optimize.Bounds{Lower: lo, Upper: hi}
	local := func(f optimize.Objective, x0 []float64) (*optimize.Result, error) {
		return optimize.NelderMead(f, x0, optimize.NMConfig{MaxEvals: cfg.MaxEvals})
	}
	initials := [][]float64{
		n.DFACTSSetting(n.Reactances()),
		n.DFACTSSetting(xOld),
	}
	initials = append(initials, cfg.WarmStarts...)
	best, err := optimize.MultiStart(obj, box, local, optimize.MSConfig{
		Starts:        cfg.Starts,
		Seed:          cfg.Seed,
		InitialPoints: initials,
		// Sparse path: a random restart is admitted only if its start
		// point already beats the best initial-point optimum — every
		// skipped restart saves a full Nelder-Mead budget of dispatch
		// LPs. Dense path keeps the historical every-start search.
		ScreenRestarts:     eng.dispatch.Backend() == grid.SparseBackend,
		NewWorkerObjective: newWorker,
	})
	if err != nil {
		return nil, fmt.Errorf("core: problem (4) search: %w", err)
	}

	gamma := eng.gamma.GammaDFACTS(best.X)
	if gamma < cfg.GammaThreshold-cfg.GammaTol {
		return nil, fmt.Errorf("%w: best γ %.4f < threshold %.4f", ErrConstraintUnreachable, gamma, cfg.GammaThreshold)
	}
	xFull := n.ExpandDFACTS(best.X)
	res, err := eng.dispatch.Solve(xFull)
	if err != nil {
		return nil, fmt.Errorf("core: OPF at selected reactances: %w", err)
	}
	return &Selection{
		Reactances:   xFull,
		OPF:          res,
		Gamma:        gamma,
		CostIncrease: OperationalCost(baselineCost, res.CostPerHour),
		BaselineCost: baselineCost,
	}, nil
}

// MaxGammaConfig tunes the MaxGamma search.
type MaxGammaConfig struct {
	// Starts is the number of multi-start points (default 8).
	Starts int
	// MaxEvals bounds objective evaluations per local search, for both the
	// γ maximization and the infeasibility-backoff selections (default
	// 120 × #D-FACTS branches). Lower it for quick large-case probes.
	MaxEvals int
	// Seed seeds the sampler.
	Seed int64
	// BaselineCost, when positive, is the no-MTD reference cost (see
	// SelectConfig.BaselineCost).
	BaselineCost float64
}

// MaxGamma finds the D-FACTS setting that maximizes γ(H(xOld), H(x'))
// regardless of cost — the pure-detection design of Section V, and the
// practical probe for the largest achievable γ (Theorem 1's orthogonality
// is unattainable with bounded devices, so this is the best the hardware
// can do). Because γ is typically maximized at extreme device settings, the
// search polls all box corners (up to 2¹² of them) in addition to
// multi-start Nelder-Mead. On networks with calibrated (tight) line
// ratings the pure-γ optimum can be operationally infeasible — no dispatch
// satisfies the ratings there; MaxGamma then backs off to the largest γ
// threshold the cost-minimizing problem (4) can satisfy, i.e. the best the
// hardware AND the network constraints allow.
func MaxGamma(n *grid.Network, xOld []float64, cfg MaxGammaConfig) (*Selection, error) {
	de, err := newDispatchEngine(n)
	if err != nil {
		return nil, err
	}
	return MaxGammaWith(NewEnginesShared(NewGammaEvaluator(n, xOld), de), n, xOld, cfg)
}

// MaxGammaWith is MaxGamma against a pre-built evaluator bundle.
func MaxGammaWith(eng *Engines, n *grid.Network, xOld []float64, cfg MaxGammaConfig) (*Selection, error) {
	idx := n.DFACTSIndices()
	if len(idx) == 0 {
		return nil, ErrNoDFACTS
	}
	if cfg.Starts <= 0 {
		cfg.Starts = 8
	}
	if cfg.MaxEvals <= 0 {
		cfg.MaxEvals = 120 * len(idx)
	}
	gammaOf := eng.gamma.GammaDFACTS
	lo, hi := n.DFACTSBounds()
	box := optimize.Bounds{Lower: lo, Upper: hi}

	// Corner enumeration (exact when the maximum sits at a vertex, which it
	// empirically does for reactance perturbations). The corners are fanned
	// out across workers; the reduction keeps the highest γ and breaks ties
	// toward the lowest corner index, which is exactly the corner a serial
	// ascending scan with strict improvement would keep.
	newGammaOf := func() func([]float64) float64 {
		return eng.gamma.NewSession().GammaDFACTS
	}
	bestX := box.Sample(rand.New(rand.NewSource(cfg.Seed)))
	bestG := gammaOf(bestX)
	if d := len(idx); d <= 12 {
		cornerG, cornerMask := bestCorner(newGammaOf, lo, hi, d)
		if cornerG > bestG {
			bestG = cornerG
			for i := 0; i < d; i++ {
				if cornerMask&(1<<i) != 0 {
					bestX[i] = hi[i]
				} else {
					bestX[i] = lo[i]
				}
			}
		}
	}

	newWorker := func() (optimize.Objective, func()) {
		gs := eng.gamma.NewSession()
		return func(xd []float64) float64 { return -gs.GammaDFACTS(xd) }, nil
	}
	obj, _ := newWorker()
	local := func(f optimize.Objective, x0 []float64) (*optimize.Result, error) {
		return optimize.NelderMead(f, x0, optimize.NMConfig{MaxEvals: cfg.MaxEvals})
	}
	res, err := optimize.MultiStart(obj, box, local, optimize.MSConfig{
		Starts:             cfg.Starts,
		Seed:               cfg.Seed,
		InitialPoints:      [][]float64{bestX},
		NewWorkerObjective: newWorker,
	})
	if err != nil {
		return nil, err
	}
	if g := -res.F; g > bestG {
		bestG = g
		bestX = res.X
	}
	baselineCost := cfg.BaselineCost
	if baselineCost <= 0 {
		baselineCost, err = NoMTDCost(n, cfg.Starts, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}
	xFull := n.ExpandDFACTS(bestX)
	opfRes, err := eng.dispatch.Solve(xFull)
	if errors.Is(err, opf.ErrInfeasible) {
		// The pure-γ optimum cannot be operated. Walk a deterministic
		// ladder of γ thresholds below it; the first level problem (4) can
		// satisfy is the best operable design.
		for _, frac := range []float64{0.95, 0.85, 0.75, 0.65, 0.55, 0.45} {
			sel, serr := SelectMTDWith(eng, n, xOld, SelectConfig{
				GammaThreshold: frac * bestG,
				Starts:         cfg.Starts,
				MaxEvals:       cfg.MaxEvals,
				Seed:           cfg.Seed,
				BaselineCost:   baselineCost,
			})
			if serr == nil {
				return sel, nil
			}
		}
		return nil, fmt.Errorf("core: OPF at max-γ reactances: %w", err)
	}
	if err != nil {
		return nil, fmt.Errorf("core: OPF at max-γ reactances: %w", err)
	}
	return &Selection{
		Reactances:   xFull,
		OPF:          opfRes,
		Gamma:        bestG,
		CostIncrease: OperationalCost(baselineCost, opfRes.CostPerHour),
		BaselineCost: baselineCost,
	}, nil
}

// bestCorner evaluates γ at all 2^d corners of the D-FACTS box, one slot
// per mask, and returns the best value with the lowest achieving mask.
// newGammaOf builds one γ evaluator per worker (engine affinity); γ
// evaluation is stateless, so the winner is independent of the worker
// count.
func bestCorner(newGammaOf func() func([]float64) float64, lo, hi []float64, d int) (float64, int) {
	gammas := make([]float64, 1<<d)
	par.For(len(gammas), func() func(int) {
		gammaOf := newGammaOf()
		xd := make([]float64, d)
		return func(mask int) {
			for i := 0; i < d; i++ {
				if mask&(1<<i) != 0 {
					xd[i] = hi[i]
				} else {
					xd[i] = lo[i]
				}
			}
			gammas[mask] = gammaOf(xd)
		}
	})
	// Strict improvement in ascending mask order keeps the lowest winner.
	bestG, bestMask := math.Inf(-1), -1
	for mask, g := range gammas {
		if g > bestG {
			bestG, bestMask = g, mask
		}
	}
	return bestG, bestMask
}

// RandomKeyWithinCost implements the random-keyspace MTD of prior work
// (Morrow et al., Davis et al.) under the reproduced paper's reading:
// random D-FACTS settings drawn uniformly from the device box, accepted
// when their OPF cost stays within costFrac (e.g. 0.02 = "within 2% of the
// optimal value") of baselineCost. It returns the accepted full reactance
// vector, its OPF cost, and the number of draws consumed. maxDraws bounds
// rejection sampling (default 1000 when <= 0).
func RandomKeyWithinCost(rng *rand.Rand, n *grid.Network, baselineCost, costFrac float64, maxDraws int) ([]float64, float64, int, error) {
	engine, err := opf.NewDispatchEngine(n)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("core: dispatch engine: %w", err)
	}
	return RandomKeyWithinCostEngine(rng, n, engine, baselineCost, costFrac, maxDraws)
}

// RandomKeyWithinCostEngine is RandomKeyWithinCost against a pre-built
// dispatch engine for the same network, so keyspace studies drawing many
// keys on one case (Figs. 7-8, the random-baseline example) amortize the
// engine construction. Each call opens a fresh engine session, so the draw
// sequence and accepted key are identical to RandomKeyWithinCost.
func RandomKeyWithinCostEngine(rng *rand.Rand, n *grid.Network, engine *opf.DispatchEngine, baselineCost, costFrac float64, maxDraws int) ([]float64, float64, int, error) {
	idx := n.DFACTSIndices()
	if len(idx) == 0 {
		return nil, 0, 0, ErrNoDFACTS
	}
	if baselineCost <= 0 || costFrac < 0 {
		return nil, 0, 0, errors.New("core: invalid cost budget")
	}
	if maxDraws <= 0 {
		maxDraws = 1000
	}
	// The rejection loop is sequential, so a single session is safe and
	// deterministic.
	sess := engine.NewSession()
	lo, hi := n.DFACTSBounds()
	box := optimize.Bounds{Lower: lo, Upper: hi}
	budget := baselineCost * (1 + costFrac)
	for draw := 1; draw <= maxDraws; draw++ {
		xd := box.Sample(rng)
		x := n.ExpandDFACTS(xd)
		cost, err := sess.Cost(x)
		if err != nil {
			continue // infeasible draw: outside the keyspace
		}
		if cost <= budget {
			return x, cost, draw, nil
		}
	}
	return nil, 0, maxDraws, fmt.Errorf("core: no random key within %.1f%% cost budget after %d draws", 100*costFrac, maxDraws)
}

// RandomPerturbation is the naive random baseline: every D-FACTS branch
// reactance is multiplied by an independent uniform factor in
// [1−maxFrac, 1+maxFrac], clipped to the device limits. It returns the
// full post-MTD reactance vector derived from the network's current
// reactances. (Under the paper's reading the prior-work keyspace bounds
// the OPF *cost*, not the reactance change — see RandomKeyWithinCost; this
// variant is kept as the literal-jitter ablation.)
func RandomPerturbation(rng *rand.Rand, n *grid.Network, maxFrac float64) ([]float64, error) {
	idx := n.DFACTSIndices()
	if len(idx) == 0 {
		return nil, ErrNoDFACTS
	}
	if maxFrac <= 0 {
		return nil, errors.New("core: maxFrac must be positive")
	}
	// Reactances() returns a fresh copy of the branch reactances, so the
	// in-place clipping below never aliases the network's stored values
	// (guarded by TestRandomPerturbationDoesNotMutateNetwork in
	// engine_test.go).
	x := n.Reactances()
	for _, i := range idx {
		factor := 1 + (2*rng.Float64()-1)*maxFrac
		v := x[i] * factor
		if v < n.Branches[i].XMin {
			v = n.Branches[i].XMin
		}
		if v > n.Branches[i].XMax {
			v = n.Branches[i].XMax
		}
		x[i] = v
	}
	return x, nil
}
