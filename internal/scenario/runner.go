package scenario

import (
	"errors"
	"fmt"
	"math/rand"

	"gridmtd/internal/core"
	"gridmtd/internal/grid"
	"gridmtd/internal/memo"
	"gridmtd/internal/opf"
	"gridmtd/internal/sim"
	"gridmtd/internal/subspace"
)

// maxCachedEngines bounds the Runner's per-network dispatch-engine cache
// (least recently used first out; an evicted engine is simply rebuilt on
// the next request for its network).
const maxCachedEngines = 16

// Runner executes Specs. It owns the shared per-case engine state: one
// dispatch-OPF engine per caller-provided network (keyed by the
// *grid.Network pointer, so a long-running service whose case table hands
// out stable networks amortizes the engine across every request), with
// the per-worker DispatchSession/GammaSession affinity inside each step
// coming from the engines themselves. A Runner is safe for concurrent use;
// the networks passed via Spec.Net are never mutated (load-changing
// workloads run on private clones), and concurrent requests for one
// network's engine share one build.
type Runner struct {
	engines *memo.LRU[*grid.Network, *opf.DispatchEngine]
}

// NewRunner returns an empty Runner.
func NewRunner() *Runner {
	return &Runner{engines: memo.New[*grid.Network, *opf.DispatchEngine](maxCachedEngines, nil)}
}

// Run executes the Spec: its steps run in order against one shared
// execution state (resolved network, shared engines, warm-start chain).
func (r *Runner) Run(spec Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n, owned, err := spec.network()
	if err != nil {
		return nil, err
	}
	st := &execState{spec: spec, r: r, n: n, owned: owned, res: &Result{}}
	if s := spec.LoadScale; s != 0 && s != 1 {
		st.ensureOwned()
		st.n.ScaleLoads(s)
	}
	if err := st.run(); err != nil {
		return nil, err
	}
	st.res.Net = st.n
	st.res.Baseline = st.pre
	return st.res, nil
}

// dispatchEngine returns the runner's shared dispatch-OPF engine for the
// caller-owned network n (built on first use, cached by pointer).
func (r *Runner) dispatchEngine(n *grid.Network) (*opf.DispatchEngine, error) {
	e, _, err := r.engines.Do(n, func() (*opf.DispatchEngine, error) {
		return opf.NewDispatchEngine(n)
	})
	return e, err
}

// execState is the shared state a Spec's steps thread through: the
// network (private clone when mutated), the shared engines, the attacker's
// knowledge, the warm-start chain and the accumulating result.
type execState struct {
	spec  Spec
	r     *Runner
	n     *grid.Network
	owned bool

	eng     *opf.DispatchEngine
	engines *core.Engines
	pre     *opf.Result
	xOld    []float64
	zOld    []float64
	attacks *core.AttackSet
	warm    [][]float64
	rng     *rand.Rand

	lastLearn *sim.LearningOutcome
	pl        *placementState

	res *Result
}

// ensureOwned gives the state a network it may mutate.
func (st *execState) ensureOwned() {
	if !st.owned {
		st.n = st.n.Clone()
		st.owned = true
	}
}

// run calls the steps of the Spec's Kind in order: sweeps chain warm
// starts and day loops carry the attacker's staleness, so a run is
// deterministic by construction rather than by isolation.
func (st *execState) run() error {
	spec := st.spec
	switch spec.Kind {
	case GammaSweep:
		if err := st.setupGammaSweep(); err != nil {
			return err
		}
		for _, gth := range spec.GammaGrid {
			if err := st.sweepPoint(gth); err != nil {
				return err
			}
		}
		if spec.CapWithMaxGamma {
			return st.sweepCap()
		}
	case DaySweep:
		return st.runDay()
	case RandomKeys:
		if err := st.setupRandomKeys(); err != nil {
			return err
		}
		for t := 1; t <= max(spec.Trials, 1); t++ {
			if err := st.randomKey(t); err != nil {
				return err
			}
		}
	case Learning:
		for _, k := range spec.SampleGrid {
			if err := st.learnPoint(k); err != nil {
				return err
			}
		}
		return st.learnProbe()
	case Placement:
		devices := spec.Placement.Devices
		if devices <= 0 {
			devices = 6
		}
		devices = min(devices, 12) // the documented cap: keeps every probe's corner poll exact
		if err := st.setupPlacement(); err != nil {
			return err
		}
		for round := 1; round <= devices; round++ {
			if err := st.placementRound(round); err != nil {
				return err
			}
		}
	}
	return nil
}

// engineFor resolves the state's dispatch engine (cached across Runs only
// for caller-provided, never-mutated networks).
func (st *execState) engineFor() (*opf.DispatchEngine, error) {
	if st.eng != nil {
		return st.eng, nil
	}
	var e *opf.DispatchEngine
	var err error
	if st.owned {
		e, err = opf.NewDispatchEngine(st.n)
	} else {
		e, err = st.r.dispatchEngine(st.n)
	}
	if err != nil {
		return nil, fmt.Errorf("scenario: dispatch engine: %w", err)
	}
	st.eng = e
	return e, nil
}

// opfStarts resolves the problem-(1) budget (defaulting to the selection
// budget, the convention of the sweep experiments).
func (st *execState) opfStarts() int {
	if st.spec.OPFStarts > 0 {
		return st.spec.OPFStarts
	}
	return st.spec.SelectStarts
}

// setScaledLoads sets the network loads to base·factor.
func (st *execState) setScaledLoads(base []float64, factor float64) {
	loads := make([]float64, len(base))
	for i, l := range base {
		loads[i] = l * factor
	}
	st.n.SetLoadsMW(loads)
}

// ---- GammaSweep -----------------------------------------------------------

// setupGammaSweep establishes the operating point and attacker knowledge:
// either the base-load problem-(1) solution (Fig. 6, mtdscan) or a profile
// hour with optionally one-hour-stale attacker knowledge (Fig. 9). A set
// Spec.XOld replaces the problem-(1) reactances as the knowledge.
func (st *execState) setupGammaSweep() error {
	spec := st.spec
	if len(spec.XOld) > 0 && len(spec.XOld) != st.n.L() {
		return fmt.Errorf("scenario: XOld has %d entries, the network has %d branches", len(spec.XOld), st.n.L())
	}
	if spec.Hour > 0 {
		st.ensureOwned()
		eng, err := st.engineFor()
		if err != nil {
			return err
		}
		factors, err := spec.profileFactors(st.n)
		if err != nil {
			return err
		}
		if spec.Hour >= len(factors) {
			return fmt.Errorf("scenario: hour %d out of range", spec.Hour)
		}
		base := st.n.LoadsMW()
		seedNow := spec.OPFSeed
		if spec.StaleAttacker {
			// Attacker knowledge: previous hour's no-MTD configuration.
			st.setScaledLoads(base, factors[spec.Hour-1])
			prev, err := opf.SolveDFACTSEngine(eng, opf.DFACTSConfig{
				Starts: st.opfStarts(), MaxEvals: spec.OPFMaxEvals, Seed: spec.OPFSeed,
			})
			if err != nil {
				return fmt.Errorf("scenario: previous-hour OPF: %w", err)
			}
			st.zOld, err = core.OperatingMeasurementsWith(eng, prev.Reactances)
			if err != nil {
				return err
			}
			st.xOld = prev.Reactances
			seedNow++
		}
		st.setScaledLoads(base, factors[spec.Hour])
		st.pre, err = opf.SolveDFACTSEngine(eng, opf.DFACTSConfig{
			Starts: st.opfStarts(), MaxEvals: spec.OPFMaxEvals, Seed: seedNow,
		})
		if err != nil {
			return fmt.Errorf("scenario: operating-point OPF: %w", err)
		}
	} else {
		eng, err := st.engineFor()
		if err != nil {
			return err
		}
		st.pre, err = opf.SolveDFACTSEngine(eng, opf.DFACTSConfig{
			Starts: st.opfStarts(), MaxEvals: spec.OPFMaxEvals, Seed: spec.OPFSeed,
		})
		if err != nil {
			return fmt.Errorf("scenario: pre-perturbation OPF: %w", err)
		}
	}
	if st.xOld == nil {
		var err error
		st.xOld = st.pre.Reactances
		if len(spec.XOld) > 0 {
			st.xOld = spec.XOld
		}
		st.zOld, err = core.OperatingMeasurementsWith(st.eng, st.xOld)
		if err != nil {
			return err
		}
	}
	var err error
	st.attacks, err = core.SampleAttacks(st.n, st.xOld, st.zOld, spec.Effectiveness)
	if err != nil {
		return err
	}
	// The search shares the attack set's x_old evaluator.
	st.engines = core.NewEnginesShared(st.attacks.Gamma(), st.eng)
	return nil
}

// sweepPoint solves problem (4) at one γ threshold and evaluates it
// against the shared attack set. Thresholds past the hardware's reach mark
// the sweep exhausted; later points are skipped.
func (st *execState) sweepPoint(gth float64) error {
	if st.res.Exhausted {
		return nil
	}
	sel, err := core.SelectMTDWith(st.engines, st.n, st.xOld, core.SelectConfig{
		GammaThreshold: gth,
		Starts:         st.spec.SelectStarts,
		MaxEvals:       st.spec.MaxEvals,
		Seed:           st.spec.Seed,
		BaselineCost:   st.pre.CostPerHour,
		WarmStarts:     st.warm,
	})
	if errors.Is(err, core.ErrConstraintUnreachable) {
		st.res.Exhausted = true
		st.res.ExhaustedAt = gth
		return nil
	}
	if err != nil {
		return fmt.Errorf("scenario: γ_th=%.2f: %w", gth, err)
	}
	return st.appendSelection(sel, gth)
}

// sweepCap appends the hardware's best (max-γ) design after an exhausted
// sweep, or as the only row of a sweep with an empty grid. On calibrated
// large cases the max-γ corner can be operationally infeasible; the sweep
// then simply ends at the last reachable threshold.
func (st *execState) sweepCap() error {
	if !st.res.Exhausted && len(st.spec.GammaGrid) > 0 {
		return nil
	}
	sel, err := core.MaxGammaWith(st.engines, st.n, st.xOld, core.MaxGammaConfig{
		Starts:       st.spec.SelectStarts,
		MaxEvals:     st.spec.MaxEvals,
		Seed:         st.spec.Seed,
		BaselineCost: st.pre.CostPerHour,
	})
	if errors.Is(err, opf.ErrInfeasible) {
		return nil
	}
	if err != nil {
		return err
	}
	return st.appendSelection(sel, 0)
}

// appendSelection evaluates a selection against the shared attack set and
// records the sweep row, chaining its setting as the next point's warm
// start.
func (st *execState) appendSelection(sel *core.Selection, target float64) error {
	eff, err := core.EvaluateAttacks(st.n, st.attacks, sel.Reactances, st.spec.Effectiveness)
	if err != nil {
		return err
	}
	st.res.Rows = append(st.res.Rows, Row{
		GammaTarget:  target,
		Gamma:        eff.Gamma,
		Deltas:       eff.Deltas,
		Eta:          eff.Eta,
		CostIncrease: sel.CostIncrease,
		Undetectable: eff.UndetectableFraction,
		Reactances:   sel.Reactances,
		BaselineCost: sel.BaselineCost,
		MTDCost:      sel.OPF.CostPerHour,
	})
	st.warm = [][]float64{st.n.DFACTSSetting(sel.Reactances)}
	return nil
}

// ---- DaySweep -------------------------------------------------------------

// runDay executes the Section VII-C day loop. For each selected hour it:
//  1. scales the loads and solves problem (1) for the no-MTD reactances
//     x_t' and reference cost C_OPF,t';
//  2. takes the attacker's knowledge H_t from the previous hour's no-MTD
//     configuration (one-hour-stale knowledge, Section VII-C);
//  3. tunes γ_th so the selected MTD achieves the target effectiveness and
//     solves problem (4);
//  4. records costs and the three principal angles of Fig. 11.
//
// Warmup first solves the first selected hour's no-MTD OPF once,
// unrecorded, so hour 0's attacker knowledge is stale like every other
// hour's (the trace begins mid-operation, not at commissioning); without
// it the first hour's own configuration is the attacker's knowledge
// (γ = 0 drift), matching the paper's first sample. Step h of the loop,
// warm-up included, seeds its solvers with Seed + h.
//
// One private clone of the network and one dispatch engine serve the whole
// day: the engine reads loads fresh on every solve and takes the reactances
// as an explicit argument, so the LP skeleton, the factorizer workspaces
// and (on the sparse path) the seed simplex basis are built once per day
// instead of once per hour. Only the γ engine is rebuilt hourly, because
// it is keyed by the attacker's (hourly-moving) knowledge x_t.
func (st *execState) runDay() error {
	spec := st.spec
	factors, err := spec.profileFactors(st.n)
	if err != nil {
		return err
	}
	hours := spec.Hours
	if len(hours) == 0 {
		hours = make([]int, len(factors))
		for i := range factors {
			hours[i] = i
		}
	}
	for _, h := range hours {
		if h < 0 || h >= len(factors) {
			return fmt.Errorf("scenario: hour index %d out of range", h)
		}
	}
	steps := hours
	if spec.Warmup {
		steps = append([]int{hours[0]}, hours...)
	}
	opfStarts := spec.OPFStarts
	if opfStarts <= 0 {
		opfStarts = 8
	}
	st.ensureOwned()
	eng, err := st.engineFor()
	if err != nil {
		return err
	}
	base := st.n.LoadsMW()

	// The previous step's no-MTD configuration and its measurements: the
	// attacker's knowledge. Each hour's OPF searches from the case's
	// nominal reactances, not from where the last MTD left the devices.
	var prevX, prevZ []float64
	for h, hour := range steps {
		st.setScaledLoads(base, factors[hour])
		seed := spec.Seed + int64(h)

		noMTD, err := opf.SolveDFACTSEngine(eng, opf.DFACTSConfig{Starts: opfStarts, Seed: seed})
		if err != nil {
			return fmt.Errorf("scenario: hour %d no-MTD OPF: %w", hour, err)
		}
		zNow, err := core.OperatingMeasurementsWith(eng, noMTD.Reactances)
		if err != nil {
			return fmt.Errorf("scenario: hour %d operating point: %w", hour, err)
		}
		xOld, zOld := prevX, prevZ
		prevX, prevZ = noMTD.Reactances, zNow
		if spec.Warmup && h == 0 {
			continue // the warm-up hour only sets the next hour's knowledge
		}
		if xOld == nil {
			xOld, zOld = noMTD.Reactances, zNow
		}

		tune := spec.Tune
		tune.Select.BaselineCost = noMTD.CostPerHour
		tune.Select.Seed = seed
		tune.Effectiveness.Seed = seed
		sel, eff, err := core.TuneGammaThresholdWith(eng, st.n, xOld, zOld, tune)
		if err != nil {
			return fmt.Errorf("scenario: hour %d MTD selection: %w", hour, err)
		}

		hOld := st.n.MeasurementMatrix(xOld)
		hNow := st.n.MeasurementMatrix(noMTD.Reactances)
		hMTD := st.n.MeasurementMatrix(sel.Reactances)
		st.res.Rows = append(st.res.Rows, Row{
			Hour:           hour,
			TotalLoadMW:    st.n.TotalLoadMW(),
			BaselineCost:   noMTD.CostPerHour,
			MTDCost:        sel.OPF.CostPerHour,
			CostIncrease:   core.OperationalCost(noMTD.CostPerHour, sel.OPF.CostPerHour),
			GammaThreshold: sel.Gamma,
			Gamma:          subspace.Gamma(hOld, hMTD),
			GammaOldNew:    subspace.Gamma(hOld, hNow),
			GammaNewMTD:    subspace.Gamma(hNow, hMTD),
			Eta:            []float64{eff.Eta[0]},
		})
	}
	return nil
}

// ---- RandomKeys -----------------------------------------------------------

// setupRandomKeys establishes the operating point, the shared attack set
// and the key sampler.
func (st *execState) setupRandomKeys() error {
	spec := st.spec
	eng, err := st.engineFor()
	if err != nil {
		return err
	}
	st.pre, err = opf.SolveDFACTSEngine(eng, opf.DFACTSConfig{
		Starts: st.opfStarts(), MaxEvals: spec.OPFMaxEvals, Seed: spec.OPFSeed,
	})
	if err != nil {
		return fmt.Errorf("scenario: pre-perturbation OPF: %w", err)
	}
	st.xOld = st.pre.Reactances
	st.zOld, err = core.OperatingMeasurementsWith(eng, st.xOld)
	if err != nil {
		return err
	}
	st.attacks, err = core.SampleAttacks(st.n, st.xOld, st.zOld, spec.Effectiveness)
	if err != nil {
		return err
	}
	st.rng = rand.New(rand.NewSource(spec.Seed))
	return nil
}

// randomKey draws one keyspace perturbation through the shared dispatch
// engine and evaluates it.
func (st *execState) randomKey(trial int) error {
	xRand, _, draws, err := core.RandomKeyWithinCostEngine(st.rng, st.n, st.eng, st.pre.CostPerHour, st.spec.CostBudget, 0)
	if err != nil {
		return err
	}
	eff, err := core.EvaluateAttacks(st.n, st.attacks, xRand, st.spec.Effectiveness)
	if err != nil {
		return err
	}
	st.res.Rows = append(st.res.Rows, Row{
		Trial:        trial,
		Draws:        draws,
		Gamma:        eff.Gamma,
		Deltas:       eff.Deltas,
		Eta:          eff.Eta,
		Undetectable: eff.UndetectableFraction,
		Reactances:   xRand,
	})
	return nil
}

// ---- Learning -------------------------------------------------------------

// learnPoint runs the attacker's subspace estimation at one sample count.
func (st *execState) learnPoint(samples int) error {
	out, err := sim.SimulateLearning(st.n, st.n.Reactances(), sim.LearningConfig{
		Samples:  samples,
		Sigma:    st.spec.LearnSigma,
		JitterMW: st.spec.LearnJitterMW,
		Seed:     st.spec.Seed,
	})
	if err != nil {
		return err
	}
	st.res.Rows = append(st.res.Rows, Row{Samples: samples, SubspaceError: out.SubspaceError})
	st.lastLearn = out
	return nil
}

// learnProbe applies one max-γ MTD and records how stale the attacker's
// best estimate becomes. The probe runs on the runner's shared dispatch
// engine, like every other step.
func (st *execState) learnProbe() error {
	eng, err := st.engineFor()
	if err != nil {
		return err
	}
	x := st.n.Reactances()
	engines := core.NewEnginesShared(core.NewGammaEvaluator(st.n, x), eng)
	sel, err := core.MaxGammaWith(engines, st.n, x, core.MaxGammaConfig{
		Starts:       st.spec.ProbeStarts,
		Seed:         st.spec.ProbeSeed,
		BaselineCost: st.spec.ProbeBaselineCost,
	})
	if err != nil {
		return err
	}
	info := &LearningInfo{Selection: sel, Last: st.lastLearn}
	if st.lastLearn != nil {
		info.Stale = sim.BasisGamma(st.n, sel.Reactances, st.lastLearn)
	}
	st.res.Learning = info
	return nil
}
