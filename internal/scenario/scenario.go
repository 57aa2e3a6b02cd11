// Package scenario is the planning layer every repeated-evaluation
// workload of the reproduction runs on. A Spec declaratively describes one
// study — which case, how it is loaded, what the attacker knows, which
// sweep is performed, at what budgets and seeds — and compiles into a
// deterministic batch of evaluation units. A Runner executes the batch
// against shared per-case engines: the dispatch-OPF engine (with its
// cached LP skeleton, factorizer workspaces and, on the sparse path, warm
// simplex bases) is built once per case and serves every unit, and the
// γ-evaluation engine is rebuilt only when the attacker's knowledge moves.
// Per-worker DispatchSession/GammaSession affinity inside each unit comes
// from the core/opf engines themselves (optimize.MSConfig.NewWorkerObjective).
//
// The experiments package, the example programs, cmd/mtdscan and the
// gridmtdd planner service all build Specs instead of hand-rolling their
// own engine construction and sweep loops; on the dense (bitwise) backend
// the rows a Spec produces are byte-identical to what those bespoke loops
// historically printed.
package scenario

import (
	"errors"
	"fmt"

	"gridmtd/internal/core"
	"gridmtd/internal/grid"
	"gridmtd/internal/loadprofile"
	"gridmtd/internal/opf"
	"gridmtd/internal/sim"
)

// Kind selects the workload a Spec describes.
type Kind int

const (
	// GammaSweep solves problem (4) along a γ-threshold grid against one
	// fixed attacker knowledge (Figs. 6 and 9, mtdscan, the tradeoff
	// example, single selection requests).
	GammaSweep Kind = iota
	// DaySweep runs the Section VII-C hourly operating day (Figs. 10-11,
	// the dailyops example) with one dispatch engine per day.
	DaySweep
	// RandomKeys draws prior-work random keyspace perturbations under an
	// OPF-cost budget and evaluates each (Figs. 7-8, the random baseline).
	RandomKeys
	// Learning runs the attacker's subspace-estimation curve and the
	// staleness induced by one max-γ MTD (Section IV-A).
	Learning
	// Placement greedily searches D-FACTS device subsets for the deployment
	// maximizing the reachable γ — the placement study the case registry
	// and shared γ engines make cheap.
	Placement
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case GammaSweep:
		return "gamma-sweep"
	case DaySweep:
		return "day-sweep"
	case RandomKeys:
		return "random-keys"
	case Learning:
		return "learning"
	case Placement:
		return "placement"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// PlacementSpec parameterizes the Placement workload.
type PlacementSpec struct {
	// Devices is the target deployment size (default 6, capped at 12 so
	// each probe's corner poll stays exact).
	Devices int
	// Pool lists the candidate branches (1-based numbers). Empty uses the
	// case's embedded D-FACTS deployment as the pool — "which subset of
	// the 12 installed devices carries the detection capability".
	Pool []int
	// AllBranches widens the pool to every branch of the case — the
	// deployment-design question ("where should devices go, given none are
	// installed yet") rather than the subset question. A wide pool
	// multiplies the probe count by L/12; each probe is one rank-|S| γ
	// evaluation over the subset's s ≤ 12 branches. Ignored when Pool is
	// set.
	AllBranches bool
	// EtaMax is the relative reactance range assumed for pool branches
	// that do not already carry a device (default 0.5, the paper's ηmax).
	EtaMax float64
}

// Spec declaratively describes one study. Exactly one of Case, Network or
// Net selects the grid; the remaining fields parameterize the workload of
// the chosen Kind (fields of other kinds are ignored). The zero budget
// values inherit the solvers' defaults, exactly as the historical bespoke
// loops did.
type Spec struct {
	Kind Kind

	// Case names a registered case (resolved via grid.CaseByName).
	Case string
	// Network builds the grid explicitly (the experiments' case overrides).
	Network func() *grid.Network
	// Net is a pre-built network owned by the caller (the planner service's
	// LRU entries). The runner never mutates it: load-changing workloads
	// run on a private clone, and engine reuse across Runs is keyed on this
	// pointer.
	Net *grid.Network

	// Backend optionally forces the dispatch engine's linear-algebra
	// backend. The γ kernels follow the process-wide default
	// (grid.SetDefaultBackend), which the commands configure from -backend.
	Backend grid.Backend

	// GammaBackend is accepted and ignored: every γ-backend name is an
	// alias of the exact evaluator (see core.GammaBackend).
	GammaBackend core.GammaBackend

	// LoadScale, when set (≠ 0 and ≠ 1), multiplies every bus load before
	// anything runs (mtdscan -scale, the tradeoff example's 6 PM point).
	LoadScale float64
	// PeakLoadMW scales the embedded NY winter-weekday trace for the
	// profile-driven workloads; 0 picks 85% of the case's base load.
	PeakLoadMW float64
	// Hour, when > 0, places a GammaSweep at this profile index instead of
	// the base loads (Fig. 9's 6 PM operating point).
	Hour int
	// StaleAttacker gives the GammaSweep attacker knowledge from hour
	// Hour−1's no-MTD configuration instead of the current one (Fig. 9's
	// one-hour-stale protocol; requires Hour > 0).
	StaleAttacker bool
	// Hours restricts a DaySweep to these profile indices (nil = all 24).
	Hours []int
	// Warmup runs a DaySweep's first hour once, unrecorded (sim.DayConfig).
	Warmup bool
	// PersistReactances keeps a DaySweep's devices where the previous hour
	// left them (sim.DayConfig).
	PersistReactances bool

	// OPFStarts, OPFMaxEvals and OPFSeed budget the problem-(1) solves
	// (the pre-perturbation operating points).
	OPFStarts   int
	OPFMaxEvals int
	OPFSeed     int64

	// GammaGrid are the γ_th values of a GammaSweep (constraint (4b)).
	GammaGrid []float64
	// CapWithMaxGamma appends the hardware's best (max-γ) design when the
	// sweep exhausts the reachable thresholds (Figs. 6 and 9). Sweeps
	// without it simply end at the last reachable threshold.
	CapWithMaxGamma bool
	// SelectStarts, MaxEvals and Seed budget the problem-(4) searches.
	SelectStarts int
	MaxEvals     int
	Seed         int64
	// Effectiveness configures the attack sampling and η'(δ) evaluations.
	Effectiveness core.EffectivenessConfig
	// Tune configures a DaySweep's hourly γ-threshold tuning.
	Tune core.TuneConfig
	// Parallelism bounds the concurrent local searches / placement probes
	// (0 = GOMAXPROCS, 1 = serial). Results are identical for any setting.
	Parallelism int

	// Trials is the number of RandomKeys draws; CostBudget their relative
	// OPF-cost allowance (the paper reads prior work as 0.02).
	Trials     int
	CostBudget float64

	// SampleGrid, LearnSigma and LearnJitterMW drive the Learning curve;
	// ProbeStarts/ProbeSeed/ProbeBaselineCost budget its max-γ staleness
	// probe (ProbeBaselineCost 0 solves the no-MTD baseline internally).
	SampleGrid        []int
	LearnSigma        float64
	LearnJitterMW     float64
	ProbeStarts       int
	ProbeSeed         int64
	ProbeBaselineCost float64

	// Placement parameterizes the Placement workload.
	Placement PlacementSpec
}

// Row is one evaluation unit's outcome. Only the fields of the Spec's Kind
// are populated; everything else stays zero.
type Row struct {
	// GammaTarget is the requested γ_th of a sweep point (0 marks the
	// max-γ cap); Gamma the achieved separation γ(H_old, H').
	GammaTarget float64
	Gamma       float64
	// Deltas and Eta form the η'(δ) curve at this point.
	Deltas []float64
	Eta    []float64
	// CostIncrease is the paper's C_MTD at this point.
	CostIncrease float64
	// Undetectable is the fraction of the attack set still stealthy.
	Undetectable float64
	// Reactances is the full post-MTD reactance vector (sweep points, keys).
	Reactances []float64

	// Hour and the daily metrics mirror sim.HourResult (DaySweep).
	Hour           int
	TotalLoadMW    float64
	BaselineCost   float64
	MTDCost        float64
	GammaThreshold float64
	GammaOldNew    float64
	GammaNewMTD    float64

	// Trial and Draws label a RandomKeys draw.
	Trial int
	Draws int

	// Samples and SubspaceError form the Learning curve.
	Samples       int
	SubspaceError float64

	// Devices is a Placement round's chosen deployment (sorted 1-based
	// branch numbers); CostKnown reports whether CostIncrease could be
	// evaluated at the round's best corner (the corner dispatch can be
	// infeasible under calibrated ratings). Gamma is the exact γ at the
	// winning corner; ProbeGamma repeats it for the placement responses
	// that report both.
	Devices    []int
	CostKnown  bool
	ProbeGamma float64
}

// LearningInfo carries the Learning workload's terminal state.
type LearningInfo struct {
	// Stale is γ(attacker's best estimate, post-MTD H).
	Stale float64
	// Selection is the max-γ perturbation used for the staleness probe.
	Selection *core.Selection
	// Last is the attacker's final (largest-sample) estimate.
	Last *sim.LearningOutcome
}

// Result is one executed Spec.
type Result struct {
	// Net is the network the study ran on (with any LoadScale / profile
	// hour applied) — callers render labels and totals from it.
	Net *grid.Network
	// Baseline is the pre-perturbation problem-(1) solution (nil for kinds
	// without one).
	Baseline *opf.Result
	// Rows are the evaluation units' outcomes, in unit order.
	Rows []Row
	// Exhausted reports that a GammaSweep hit an unreachable threshold;
	// ExhaustedAt is that threshold.
	Exhausted   bool
	ExhaustedAt float64
	// Learning carries the Learning workload's terminal state.
	Learning *LearningInfo
}

// Validate checks the Spec for structural errors before any computation
// starts.
func (s Spec) Validate() error {
	selectors := 0
	if s.Case != "" {
		selectors++
		if _, err := grid.CaseByName(s.Case); err != nil {
			return err
		}
	}
	if s.Network != nil {
		selectors++
	}
	if s.Net != nil {
		selectors++
	}
	if selectors != 1 {
		return errors.New("scenario: exactly one of Case, Network or Net must select the grid")
	}
	switch s.Kind {
	case GammaSweep:
		if len(s.GammaGrid) == 0 {
			return errors.New("scenario: GammaSweep needs a non-empty GammaGrid")
		}
		if s.StaleAttacker && s.Hour <= 0 {
			return errors.New("scenario: StaleAttacker needs Hour > 0")
		}
	case DaySweep, RandomKeys, Learning, Placement:
		// Budgets default inside the runner / solvers.
	default:
		return fmt.Errorf("scenario: unknown kind %d", int(s.Kind))
	}
	return nil
}

// network resolves the Spec's grid. owned reports whether the runner may
// mutate it (fresh constructions are owned; a caller-provided Net is not).
func (s Spec) network() (n *grid.Network, owned bool, err error) {
	switch {
	case s.Case != "":
		n, err = grid.CaseByName(s.Case)
		return n, true, err
	case s.Network != nil:
		return s.Network(), true, nil
	default:
		return s.Net, false, nil
	}
}

// profileFactors returns the Spec's hourly load factors: the embedded NY
// winter-weekday shape scaled so the network peaks at PeakLoadMW (or 85%
// of the base load when unset) — the convention every profile-driven
// artifact of the reproduction shares.
func (s Spec) profileFactors(n *grid.Network) ([]float64, error) {
	peak := s.PeakLoadMW
	if peak <= 0 {
		peak = 0.85 * n.TotalLoadMW()
	}
	return loadprofile.ScaleToPeak(loadprofile.NYWinterWeekday(), n.TotalLoadMW(), peak)
}

// Unit is one schedulable step of a compiled Spec. Units run in order:
// sweeps chain warm starts and day loops carry the attacker's staleness,
// so the batch is deterministic by construction rather than by isolation.
type Unit struct {
	// Label names the unit for logs and progress displays.
	Label string
	run   func(*execState) error
}

// Batch is a compiled Spec: the resolved deterministic unit sequence.
type Batch struct {
	Spec  Spec
	Units []Unit
}

// Compile resolves the Spec into its evaluation units. Compilation is
// cheap and performs no numerical work; it exists so callers can inspect
// and label the work before running it.
func (s Spec) Compile() (*Batch, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	b := &Batch{Spec: s}
	switch s.Kind {
	case GammaSweep:
		b.Units = append(b.Units, Unit{Label: "operating-point", run: (*execState).setupGammaSweep})
		for _, gth := range s.GammaGrid {
			gth := gth
			b.Units = append(b.Units, Unit{
				Label: fmt.Sprintf("gamma=%.3g", gth),
				run:   func(st *execState) error { return st.sweepPoint(gth) },
			})
		}
		if s.CapWithMaxGamma {
			b.Units = append(b.Units, Unit{Label: "max-gamma-cap", run: (*execState).sweepCap})
		}
	case DaySweep:
		b.Units = append(b.Units, Unit{Label: "day", run: (*execState).runDay})
	case RandomKeys:
		b.Units = append(b.Units, Unit{Label: "operating-point", run: (*execState).setupRandomKeys})
		trials := s.Trials
		if trials <= 0 {
			trials = 1
		}
		for t := 1; t <= trials; t++ {
			t := t
			b.Units = append(b.Units, Unit{
				Label: fmt.Sprintf("key-%d", t),
				run:   func(st *execState) error { return st.randomKey(t) },
			})
		}
	case Learning:
		for _, k := range s.SampleGrid {
			k := k
			b.Units = append(b.Units, Unit{
				Label: fmt.Sprintf("samples-%d", k),
				run:   func(st *execState) error { return st.learnPoint(k) },
			})
		}
		b.Units = append(b.Units, Unit{Label: "staleness-probe", run: (*execState).learnProbe})
	case Placement:
		devices := s.Placement.Devices
		if devices <= 0 {
			devices = 6
		}
		if devices > 12 {
			devices = 12 // the documented cap: keeps every probe's corner poll exact
		}
		b.Units = append(b.Units, Unit{Label: "placement-setup", run: (*execState).setupPlacement})
		for round := 1; round <= devices; round++ {
			round := round
			b.Units = append(b.Units, Unit{
				Label: fmt.Sprintf("round-%d", round),
				run:   func(st *execState) error { return st.placementRound(round) },
			})
		}
	}
	return b, nil
}
