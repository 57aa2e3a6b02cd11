package optimize

import (
	"errors"
	"math"
	"math/rand"

	"gridmtd/internal/par"
)

// Bounds is a per-dimension box used to draw multi-start points.
type Bounds struct {
	Lower []float64
	Upper []float64
}

// Validate checks the box for consistency.
func (b Bounds) Validate() error {
	if len(b.Lower) == 0 || len(b.Lower) != len(b.Upper) {
		return errors.New("optimize: invalid bounds")
	}
	for i := range b.Lower {
		if b.Lower[i] > b.Upper[i] {
			return errors.New("optimize: lower bound exceeds upper bound")
		}
	}
	return nil
}

// Sample draws a uniform point inside the box.
func (b Bounds) Sample(rng *rand.Rand) []float64 {
	x := make([]float64, len(b.Lower))
	for i := range x {
		x[i] = b.Lower[i] + rng.Float64()*(b.Upper[i]-b.Lower[i])
	}
	return x
}

// Clamp projects x into the box in place and returns it.
func (b Bounds) Clamp(x []float64) []float64 {
	for i := range x {
		if x[i] < b.Lower[i] {
			x[i] = b.Lower[i]
		}
		if x[i] > b.Upper[i] {
			x[i] = b.Upper[i]
		}
	}
	return x
}

// Local is a local minimizer signature usable with MultiStart.
type Local func(f Objective, x0 []float64) (*Result, error)

// MSConfig configures the multi-start driver.
type MSConfig struct {
	// Starts is the number of random restarts in addition to the provided
	// initial points (default 10).
	Starts int
	// Seed seeds the restart sampler.
	Seed int64
	// InitialPoints are deterministic starting points tried before random
	// ones (e.g. the current operating point).
	InitialPoints [][]float64
	// NewWorkerObjective, when non-nil, gives every worker its own
	// objective (engine affinity: one cached engine session per worker
	// instead of sync.Pool churn on every evaluation). It returns the
	// worker's objective and a reset hook the driver calls before each
	// local search; the hook scopes any cross-evaluation state the
	// objective carries (a dispatch session's Farkas-ray index) to a single
	// start, so results do not depend on which worker ran which start. The
	// returned objective must be pointwise identical to the f passed to
	// MultiStart up to that per-start state; a nil reset is allowed for
	// stateless objectives.
	NewWorkerObjective func() (Objective, func())
	// ScreenRestarts stages the run: the deterministic InitialPoints
	// trajectories complete first, then every random restart is scored
	// with a single objective evaluation at its (clamped) start point and
	// earns a full local search only if that score strictly improves on
	// the best initial-point optimum. Restarts that fail the screen
	// contribute their score as a 1-eval outcome — they can never win the
	// reduction (their score is no better than an earlier result), so the
	// screen only removes local-search work, never changes a winner that
	// would have come from an initial point. Screening is deterministic
	// and worker-count invariant by construction: the bar is fixed at the
	// stage barrier before any restart is scored. It has no effect when
	// there are no InitialPoints. Callers with expensive objectives (the
	// dispatch-LP searches on the sparse path) use it to stop paying a
	// full Nelder-Mead budget for restarts that start out losing; exact
	// paths leave it off and keep the historical every-start behavior.
	ScreenRestarts bool
}

// MultiStart minimizes f over the box by running the local solver from
// several starting points (deterministic ones first, then Starts uniform
// random draws) and returning the best local optimum. Candidate points are
// clamped to the box before each local run, and returned points are clamped
// too, so the result always lies inside the box.
//
// Local searches run on GOMAXPROCS workers (par.For), so the objective and
// local solver must be safe for concurrent calls whenever GOMAXPROCS
// exceeds 1. Determinism is preserved by construction rather than by
// per-start reseeding: every start point is pre-drawn from the single
// Seed-keyed sequence (bitwise the points a serial run would draw), the
// local searches are independent, and the best result is selected by
// (objective value, start index) — the exact winner of the historical
// serial loop — so any worker count, including 1, returns the same Result.
// When a local search fails, the lowest-index error is returned.
func MultiStart(f Objective, box Bounds, local Local, cfg MSConfig) (*Result, error) {
	if err := box.Validate(); err != nil {
		return nil, err
	}
	if cfg.Starts <= 0 {
		cfg.Starts = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Assemble every start point up front, in the order the serial loop
	// would try them.
	points := make([][]float64, 0, len(cfg.InitialPoints)+cfg.Starts)
	for _, p := range cfg.InitialPoints {
		points = append(points, box.Clamp(append([]float64(nil), p...)))
	}
	for i := 0; i < cfg.Starts; i++ {
		points = append(points, box.Sample(rng))
	}
	if len(points) == 0 {
		return nil, errors.New("optimize: no starting points")
	}

	// workerObjective resolves one worker's objective and per-start reset
	// hook: the shared f when no affinity factory is configured.
	workerObjective := func() (Objective, func()) {
		if cfg.NewWorkerObjective != nil {
			return cfg.NewWorkerObjective()
		}
		return f, nil
	}

	type outcome struct {
		res   *Result
		evals int
		err   error
	}
	outs := make([]outcome, len(points))
	// screenBar is the restart screen threshold: the best initial-point
	// optimum, fixed at the stage barrier before any restart is scored.
	// +Inf (the zero stage: no screening, or no initial points) admits
	// every restart.
	screenBar := math.Inf(1)
	screening := cfg.ScreenRestarts && len(cfg.InitialPoints) > 0
	// runStart runs start i against one worker's objective. The reset hook
	// fires before the local search, so everything the objective computes
	// for this start — including the final re-evaluation of the clamped
	// optimum — depends only on the start itself, never on which worker
	// ran it or what that worker ran before.
	runStart := func(i int, obj Objective, reset func()) {
		if reset != nil {
			reset()
		}
		if screening && i >= len(cfg.InitialPoints) {
			// Restart screen: one evaluation at the start point decides
			// whether this restart earns a local search. The score is a
			// pure function of the point (the reset above scoped any
			// warm state), so the verdict is worker-count invariant.
			x0 := box.Clamp(append([]float64(nil), points[i]...))
			f0 := obj(x0)
			if !(f0 < screenBar) {
				outs[i] = outcome{res: &Result{X: x0, F: f0, Evals: 1}, evals: 1}
				return
			}
			if reset != nil {
				reset() // scope the local search exactly like an unscreened run
			}
		}
		// Evaluate through a box projection so local solvers cannot leave
		// the box.
		proj := func(x []float64) float64 {
			clamped := box.Clamp(append([]float64(nil), x...))
			return obj(clamped)
		}
		res, err := local(proj, points[i])
		if err != nil {
			outs[i] = outcome{err: err}
			return
		}
		evals := res.Evals
		res.X = box.Clamp(res.X)
		res.F = obj(res.X)
		evals++
		outs[i] = outcome{res: res, evals: evals}
	}

	// runRange runs starts [lo, hi) and returns the lowest-index error.
	runRange := func(lo, hi int) error {
		par.For(hi-lo, func() func(int) {
			obj, reset := workerObjective()
			return func(i int) { runStart(lo+i, obj, reset) }
		})
		for i := lo; i < hi; i++ {
			if outs[i].err != nil {
				return outs[i].err
			}
		}
		return nil
	}

	if screening {
		// Stage 1: deterministic initial points. The barrier fixes the
		// screen bar before any restart runs, so the bar — and with it
		// every screen verdict — is independent of scheduling.
		if err := runRange(0, len(cfg.InitialPoints)); err != nil {
			return nil, err
		}
		for i := 0; i < len(cfg.InitialPoints); i++ {
			if outs[i].res.F < screenBar {
				screenBar = outs[i].res.F
			}
		}
		if err := runRange(len(cfg.InitialPoints), len(points)); err != nil {
			return nil, err
		}
	} else if err := runRange(0, len(points)); err != nil {
		return nil, err
	}

	// Deterministic reduction in start order: first error wins, strict
	// improvement picks the earliest minimum — the serial loop's winner.
	var best *Result
	totalEvals := 0
	for i := range outs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		totalEvals += outs[i].evals
		if best == nil || outs[i].res.F < best.F {
			best = outs[i].res
		}
	}
	best.Evals = totalEvals
	return best, nil
}
