// Package scenario is the planning layer every repeated-evaluation
// workload of the reproduction runs on. A Spec declaratively describes one
// study — which case, how it is loaded, what the attacker knows, which
// sweep is performed, at what budgets and seeds. A Runner executes its
// steps in a fixed order against shared per-case engines: the dispatch-OPF
// engine (with its cached LP skeleton, factorizer workspaces, seed basis
// and dispatch-solve memo) is built once per case and serves every step,
// and the γ-evaluation engine is rebuilt only when the attacker's
// knowledge moves. Per-worker DispatchSession/GammaSession affinity inside
// each step comes from the core/opf engines themselves
// (optimize.MSConfig.NewWorkerObjective).
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

// Spec declaratively describes one study. Exactly one of Case or Net
// selects the grid; the remaining fields parameterize the workload of the
// chosen Kind (fields of other kinds are ignored). The zero budget values
// inherit the solvers' defaults, exactly as the historical bespoke loops
// did. Every engine follows the process-wide linear-algebra backend
// (grid.SetDefaultBackend), which the commands configure from -backend.
type Spec struct {
	Kind Kind

	// Case names a registered case (resolved via grid.CaseByName).
	Case string
	// Net is a pre-built network owned by the caller (the planner service's
	// LRU entries). The runner never mutates it: load-changing workloads
	// run on a private clone, and engine reuse across Runs is keyed on this
	// pointer.
	Net *grid.Network

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
	// XOld, when set, is the GammaSweep attacker's knowledge in place of
	// the problem-(1) reactances (a served request's x_old). It must have
	// one entry per branch and excludes StaleAttacker.
	XOld []float64
	// Hours restricts a DaySweep to these profile indices (nil = all 24).
	Hours []int
	// Warmup runs a DaySweep's first hour once, unrecorded, so the first
	// recorded hour's attacker knowledge is stale like every other hour's.
	Warmup bool

	// OPFStarts, OPFMaxEvals and OPFSeed budget the problem-(1) solves
	// (the pre-perturbation operating points). A DaySweep's hourly solves
	// read only OPFStarts (default 8) and seed each hour from Seed.
	OPFStarts   int
	OPFMaxEvals int
	OPFSeed     int64

	// GammaGrid are the γ_th values of a GammaSweep (constraint (4b)).
	// It may be empty only with CapWithMaxGamma: the max-γ cap is then the
	// sweep's one row.
	GammaGrid []float64
	// CapWithMaxGamma appends the hardware's best (max-γ) design when the
	// sweep exhausts the reachable thresholds (Figs. 6 and 9). Sweeps
	// without it simply end at the last reachable threshold.
	CapWithMaxGamma bool
	// SelectStarts, MaxEvals and Seed budget the problem-(4) searches and
	// the max-γ cap; MaxEvals 0 keeps each search's default budget.
	SelectStarts int
	MaxEvals     int
	Seed         int64
	// Effectiveness configures the attack sampling and η'(δ) evaluations.
	Effectiveness core.EffectivenessConfig
	// Tune configures a DaySweep's hourly γ-threshold tuning.
	Tune core.TuneConfig

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

// Row is one evaluation step's outcome. Only the fields of the Spec's Kind
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

	// Hour is a DaySweep row's profile index (0 = 1 AM ... 23 = 12 AM) and
	// TotalLoadMW the system demand that hour. BaselineCost is the no-MTD
	// problem-(1) cost C_OPF,t' and MTDCost the cost C'_OPF,t' under the
	// selected perturbation (sweep points carry both too). GammaThreshold
	// is the hour's tuned γ_th. On a DaySweep row, Gamma is γ(H_t, H'_t')
	// (attacker knowledge vs applied MTD), GammaOldNew is γ(H_t, H_t') (the
	// natural hour-over-hour drift, ≈ 0 in Fig. 11), GammaNewMTD is
	// γ(H_t', H'_t') (tracks Gamma, the paper's approximation), and Eta
	// holds the achieved η'(δ*) alone.
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
	// hour applied; a DaySweep leaves its last hour's loads) — callers
	// render labels and totals from it.
	Net *grid.Network
	// Baseline is the pre-perturbation problem-(1) solution (nil for kinds
	// without one).
	Baseline *opf.Result
	// Rows are the evaluation steps' outcomes, in step order.
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
	if s.Net != nil {
		selectors++
	}
	if selectors != 1 {
		return errors.New("scenario: exactly one of Case or Net must select the grid")
	}
	switch s.Kind {
	case GammaSweep:
		if len(s.GammaGrid) == 0 && !s.CapWithMaxGamma {
			return errors.New("scenario: GammaSweep needs a non-empty GammaGrid or CapWithMaxGamma")
		}
		if s.StaleAttacker && s.Hour <= 0 {
			return errors.New("scenario: StaleAttacker needs Hour > 0")
		}
		if s.StaleAttacker && len(s.XOld) > 0 {
			return errors.New("scenario: StaleAttacker and XOld both set the attacker's knowledge")
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
	if s.Case != "" {
		n, err = grid.CaseByName(s.Case)
		return n, true, err
	}
	return s.Net, false, nil
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
