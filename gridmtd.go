package gridmtd

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"gridmtd/internal/attack"
	"gridmtd/internal/core"
	"gridmtd/internal/dcflow"
	"gridmtd/internal/grid"
	"gridmtd/internal/loadprofile"
	"gridmtd/internal/lp"
	"gridmtd/internal/mat"
	"gridmtd/internal/opf"
	"gridmtd/internal/planner"
	"gridmtd/internal/scenario"
	"gridmtd/internal/se"
	"gridmtd/internal/sim"
	"gridmtd/internal/subspace"
)

// ---- Grid model ----------------------------------------------------------

// Network is a power system model: buses, branches (optionally carrying
// D-FACTS devices), and generators with linear costs.
type Network = grid.Network

// Bus is a network node with a real-power load.
type Bus = grid.Bus

// Branch is a transmission line; HasDFACTS marks defender-perturbable
// reactances.
type Branch = grid.Branch

// Generator is a dispatchable source with a linear cost curve.
type Generator = grid.Generator

// Unlimited is a convenience flow limit for unconstrained branches.
var Unlimited = grid.Unlimited

// NewCase4GS returns the 4-bus system of the paper's motivating example
// (MATPOWER case4gs with the reverse-engineered Table II/III economics).
func NewCase4GS() *Network { return grid.Case4GS() }

// NewIEEE14 returns the IEEE 14-bus system with the paper's Table-IV
// generators, D-FACTS on branches {1,5,9,11,17,19} (ηmax = 0.5) and the
// 160/60 MW flow limits.
func NewIEEE14() *Network { return grid.CaseIEEE14() }

// NewIEEE30 returns the IEEE 30-bus system used in the paper's
// scalability experiment.
func NewIEEE30() *Network { return grid.CaseIEEE30() }

// NewIEEE57 returns the IEEE 57-bus system, the first case beyond the
// paper's own evaluation sizes (parallel circuits merged, calibrated
// ratings; see internal/grid/cases).
func NewIEEE57() *Network { return grid.CaseIEEE57() }

// NewIEEE118 returns the IEEE 118-bus system — the grid the related MTD
// literature evaluates on, served by the sparse linear-algebra backend.
func NewIEEE118() *Network { return grid.CaseIEEE118() }

// CaseInfo summarizes one registered case for listings.
type CaseInfo = grid.CaseInfo

// Cases lists the embedded case registry, smallest system first.
func Cases() []CaseInfo { return grid.Cases() }

// CaseNames returns the primary names of the registered cases.
func CaseNames() []string { return grid.CaseNames() }

// CaseByName builds a fresh, validated Network for a registered case name
// or alias ("ieee118", "118bus", ...). The error for an unknown name lists
// what is available.
func CaseByName(name string) (*Network, error) { return grid.CaseByName(name) }

// FormatCases writes the case-registry listing to w, one line per case —
// the shared renderer behind every command's "-case list".
func FormatCases(w io.Writer) {
	for _, ci := range Cases() {
		aliases := ""
		if len(ci.Aliases) > 0 {
			aliases = " (aliases: " + strings.Join(ci.Aliases, ", ") + ")"
		}
		fmt.Fprintf(w, "%-10s %3d buses, %3d branches, %2d D-FACTS  %s%s\n",
			ci.Name, ci.Buses, ci.Branches, ci.DFACTS, ci.Title, aliases)
	}
}

// ---- Power flow & OPF ----------------------------------------------------

// PowerFlow is a solved DC power flow.
type PowerFlow = dcflow.Result

// RunPowerFlow solves the DC power flow for branch reactances x (per-unit)
// and net bus injections (MW, must balance).
func RunPowerFlow(n *Network, x, injectionsMW []float64) (*PowerFlow, error) {
	return dcflow.Solve(n, x, injectionsMW)
}

// Measurements builds the noiseless sensor vector z = [p; f; −f]
// (per-unit) for a solved power flow.
func Measurements(n *Network, injectionsMW []float64, pf *PowerFlow) []float64 {
	return dcflow.Measurements(n, injectionsMW, pf)
}

// Backend names a linear-algebra backend for the reduced-susceptance
// factorization and the dispatch LP: the dense backend is the historical,
// bitwise-reproducible path; the sparse backend (automatic at or above
// grid.SparseThreshold buses) adds the sparse Cholesky factorization, the
// warm-started revised simplex and the rank-|S| γ kernel under a
// 1e-9-agreement contract.
type Backend = grid.Backend

// Backend choices for NewDispatchEngineBackend and SetDefaultBackend.
const (
	AutoBackend   = grid.AutoBackend
	DenseBackend  = grid.DenseBackend
	SparseBackend = grid.SparseBackend
)

// ParseBackend parses a -backend flag value ("auto", "dense", "sparse").
func ParseBackend(s string) (Backend, error) { return grid.ParseBackend(s) }

// SetDefaultBackend overrides what the automatic backend choice resolves
// to for everything constructed afterwards — the hook behind the cmds'
// -backend flag, so dense-vs-sparse A/B runs need no code edits.
func SetDefaultBackend(b Backend) { grid.SetDefaultBackend(b) }

// FormatBackends writes the linear-algebra backend listing to w — the
// renderer behind "-backend list".
func FormatBackends(w io.Writer) {
	for _, b := range grid.Backends() {
		fmt.Fprintf(w, "%-8s %s\n", b.Name, b.Desc)
	}
}

// ResolveCommonFlags implements the CLI contract every command's
// -case/-backend pair shares: a "list" value (case-insensitive, in that
// precedence order) prints the matching registry listing to w and reports
// handled=true, otherwise the backend value is parsed and installed as the
// process default. The three commands delegating here (mtdexp, mtdscan,
// gridopf) therefore print byte-identical listings; the cmd tests pin
// that.
func ResolveCommonFlags(w io.Writer, caseName, backend string) (handled bool, err error) {
	if strings.EqualFold(caseName, "list") {
		FormatCases(w)
		return true, nil
	}
	if strings.EqualFold(backend, "list") {
		FormatBackends(w)
		return true, nil
	}
	b, err := ParseBackend(backend)
	if err != nil {
		return false, err
	}
	SetDefaultBackend(b)
	return false, nil
}

// LPStats is the revised-simplex counter set (see the lp package's
// RevisedStats for each counter's precise meaning).
type LPStats = lp.RevisedStats

// GlobalLPStats returns the process-wide revised-simplex counters
// accumulated since process start across every dispatch-LP solver — eta
// updates vs refactorizations, warm-path fallbacks — the numbers mtdexp -v
// prints and gridmtdd serves at /v1/stats.
func GlobalLPStats() LPStats { return lp.GlobalRevisedStats() }

// FormatLPStats writes the one-block human rendering of LP counters that
// mtdexp -v appends after a run.
func FormatLPStats(w io.Writer, s LPStats) {
	fmt.Fprintf(w, "dispatch LP: %d solves (%d warm, %d cold, %d fallbacks)\n",
		s.Solves, s.WarmSolves, s.ColdSolves, s.Fallbacks)
	fmt.Fprintf(w, "  warm pivots: %d dual (%d steepest-edge, %d bound flips); basis exchanges: %d eta updates, %d refactorizations\n",
		s.DualPivots, s.SEPivots, s.BoundFlips, s.EtaUpdates, s.Refactorizations)
	fmt.Fprintf(w, "  pricing-weight resets: %d\n", s.WeightResets)
	fmt.Fprintf(w, "  infeasibility: %d certified by full solves, %d pre-screened by recycled Farkas rays (%d ray probes)\n",
		s.InfeasibleSolves, s.PrescreenHits, s.PrescreenProbes)
}

// FormatSolveCacheStats writes the one-line human rendering of the
// dispatch-solve memo counters that mtdexp -v appends after FormatLPStats.
func FormatSolveCacheStats(w io.Writer, c SolveCacheStats) {
	fmt.Fprintf(w, "dispatch-solve memo: %d hits, %d misses\n", c.Hits, c.Misses)
}

// SolveCacheStats is the dispatch-solve memo counter set (see the opf
// package's SolveCacheStats for the counters' precise meanings).
type SolveCacheStats = opf.SolveCacheStats

// GlobalSolveCacheStats returns the process-wide dispatch-solve memo
// counters: how many dispatch LPs the bitwise (loads, reactances) cache
// answered without running the simplex.
func GlobalSolveCacheStats() SolveCacheStats { return opf.GlobalSolveCacheStats() }

// OPFResult is a solved optimal power flow.
type OPFResult = opf.Result

// DispatchEngine solves the dispatch-only OPF for many reactance vectors
// against one network, with cached LP skeletons and per-worker sessions
// (see NewDispatchEngineBackend for explicit backend control).
type DispatchEngine = opf.DispatchEngine

// DispatchSession is a single-goroutine view of a DispatchEngine with a
// private workspace and, on the sparse path, its own Farkas-ray index.
type DispatchSession = opf.DispatchSession

// NewDispatchEngine builds a dispatch-OPF engine with the automatic
// backend choice.
func NewDispatchEngine(n *Network) (*DispatchEngine, error) {
	return opf.NewDispatchEngine(n)
}

// NewDispatchEngineBackend is NewDispatchEngine with an explicit backend.
func NewDispatchEngineBackend(n *Network, b Backend) (*DispatchEngine, error) {
	return opf.NewDispatchEngineBackend(n, b)
}

// DFACTSOPFConfig tunes the reactance search of SolveOPFWithDFACTS.
type DFACTSOPFConfig = opf.DFACTSConfig

// SolveOPF solves the dispatch-only DC OPF at fixed reactances x (the
// paper's problem (1) without D-FACTS, footnote 1).
func SolveOPF(n *Network, x []float64) (*OPFResult, error) {
	return opf.SolveDispatch(n, x)
}

// SolveOPFWithDFACTS solves the paper's problem (1) in full: generation
// cost minimized over both dispatch and D-FACTS reactance settings.
func SolveOPFWithDFACTS(n *Network, cfg DFACTSOPFConfig) (*OPFResult, error) {
	return opf.SolveDFACTS(n, cfg)
}

// ---- State estimation & attacks -------------------------------------------

// Estimator is a least-squares DC state estimator for a fixed measurement
// matrix.
type Estimator = se.Estimator

// BDD is the residual-based bad data detector.
type BDD = se.BDD

// NewEstimator builds a state estimator for the network at reactances x.
func NewEstimator(n *Network, x []float64) (*Estimator, error) {
	return se.NewEstimator(n.MeasurementMatrix(x))
}

// NewBDD calibrates a bad data detector for the estimator at noise level
// sigma (per-unit) and false-positive rate alpha.
func NewBDD(e *Estimator, sigma, alpha float64) (*BDD, error) {
	return se.NewBDD(e, sigma, alpha)
}

// Attack is a crafted false-data-injection vector a = H·c.
type Attack = attack.Vector

// CraftAttack builds the BDD-bypassing attack a = H(x)·c for a state
// perturbation c in the reduced (slack-removed) state space.
func CraftAttack(n *Network, x, c []float64) *Attack {
	return attack.Craft(n.MeasurementMatrix(x), c)
}

// RandomAttack draws a random stealthy attack scaled so that
// ‖a‖₁/‖z‖₁ = ratio (the paper uses ≈ 0.08).
func RandomAttack(rng *rand.Rand, n *Network, x, z []float64, ratio float64) (*Attack, error) {
	return attack.Random(rng, n.MeasurementMatrix(x), z, ratio)
}

// IsUndetectable applies the paper's Proposition 1: does attack vector a
// (crafted on an older matrix) still lie in the column space of the
// measurement matrix at reactances xNew? It is the estimator's residual
// test: one QR of H(xNew), with a stealthy iff its residual component
// vanishes relative to ‖a‖. It panics if H(xNew) is rank deficient, which
// a validated network at positive finite reactances never is.
func IsUndetectable(n *Network, xNew, a []float64) bool {
	est, err := se.NewEstimator(n.MeasurementMatrix(xNew))
	if err != nil {
		panic("gridmtd: " + err.Error())
	}
	return est.IsStealthy(a, 0)
}

// ---- MTD ------------------------------------------------------------------

// EffectivenessConfig controls the η'(δ) evaluation (attack count, noise
// level, FP rate, δ thresholds, analytic vs Monte-Carlo detection).
type EffectivenessConfig = core.EffectivenessConfig

// EffectivenessResult carries γ, the η'(δ) curve and per-attack detection
// probabilities.
type EffectivenessResult = core.EffectivenessResult

// AttackSet is a reusable batch of crafted attacks.
type AttackSet = core.AttackSet

// MTDSelection is a chosen perturbation with its γ, OPF and cost metrics.
type MTDSelection = core.Selection

// MTDSelectConfig tunes the problem-(4) search.
type MTDSelectConfig = core.SelectConfig

// MaxGammaConfig tunes the pure-detection (max-γ) search.
type MaxGammaConfig = core.MaxGammaConfig

// TuneConfig drives the γ-threshold auto-tuning loop.
type TuneConfig = core.TuneConfig

// DefaultDeltas are the paper's detection-probability thresholds
// {0.5, 0.8, 0.9, 0.95}.
var DefaultDeltas = core.DefaultDeltas

// ErrGammaUnreachable is returned by SelectMTD when no setting within the
// D-FACTS limits achieves the requested γ threshold.
var ErrGammaUnreachable = core.ErrConstraintUnreachable

// ErrNoDFACTS is returned by MTD routines on networks without D-FACTS
// devices.
var ErrNoDFACTS = core.ErrNoDFACTS

// OperatingMeasurements returns the noiseless measurement vector of the
// OPF operating point at reactances x (used to scale attack magnitudes).
func OperatingMeasurements(n *Network, x []float64) ([]float64, error) {
	return core.OperatingMeasurements(n, x)
}

// Effectiveness evaluates the paper's η'(δ) metric for the MTD that moves
// the reactances from xOld (attacker's knowledge) to xNew, with zOld the
// operating measurements under xOld.
func Effectiveness(n *Network, xOld, xNew, zOld []float64, cfg EffectivenessConfig) (*EffectivenessResult, error) {
	return core.Effectiveness(n, xOld, xNew, zOld, cfg)
}

// SampleAttacks pre-crafts an attack batch for reuse across perturbations.
func SampleAttacks(n *Network, xOld, zOld []float64, cfg EffectivenessConfig) (*AttackSet, error) {
	return core.SampleAttacks(n, xOld, zOld, cfg)
}

// EvaluateAttacks computes the effectiveness of perturbation xNew against
// a pre-crafted attack set.
func EvaluateAttacks(n *Network, set *AttackSet, xNew []float64, cfg EffectivenessConfig) (*EffectivenessResult, error) {
	return core.EvaluateAttacks(n, set, xNew, cfg)
}

// SelectMTD solves the paper's problem (4): a cost-minimal reactance
// perturbation subject to γ(H(xOld), H(x')) ≥ γ_th.
func SelectMTD(n *Network, xOld []float64, cfg MTDSelectConfig) (*MTDSelection, error) {
	return core.SelectMTD(n, xOld, cfg)
}

// MaxGamma finds the most detection-effective perturbation the D-FACTS
// hardware allows, regardless of cost.
func MaxGamma(n *Network, xOld []float64, cfg MaxGammaConfig) (*MTDSelection, error) {
	return core.MaxGamma(n, xOld, cfg)
}

// RandomPerturbation applies a naive random baseline: independent uniform
// reactance perturbations within ±maxFrac on every D-FACTS branch.
func RandomPerturbation(rng *rand.Rand, n *Network, maxFrac float64) ([]float64, error) {
	return core.RandomPerturbation(rng, n, maxFrac)
}

// RandomKeyWithinCost draws one key of the prior-work random MTD keyspace:
// a uniform D-FACTS setting accepted when its OPF cost stays within
// costFrac of baselineCost (the paper reads prior work's "within 2% of the
// optimal value" as this cost budget). It returns the reactance vector,
// its OPF cost and the number of draws used.
func RandomKeyWithinCost(rng *rand.Rand, n *Network, baselineCost, costFrac float64, maxDraws int) ([]float64, float64, int, error) {
	return core.RandomKeyWithinCost(rng, n, baselineCost, costFrac, maxDraws)
}

// TuneGammaThreshold bisects γ_th to the smallest value whose selected MTD
// achieves the target effectiveness (the paper's daily procedure).
func TuneGammaThreshold(n *Network, xOld, zOld []float64, cfg TuneConfig) (*MTDSelection, *EffectivenessResult, error) {
	return core.TuneGammaThreshold(n, xOld, zOld, cfg)
}

// Gamma returns the subspace separation γ(H(xOld), H(xNew)): the largest
// principal angle between the two measurement column spaces, computed by
// the same exact γ engine as the selection search. It is bitwise the
// reference principal-angle pipeline below grid.SparseThreshold buses or
// under the dense backend; otherwise it is the rank-|S| update over the
// branches whose reactance differs, within 1e-9 of the reference.
func Gamma(n *Network, xOld, xNew []float64) float64 {
	return core.Gamma(n, xOld, xNew)
}

// GammaEvaluator evaluates γ(H(xOld), H(x')) for many candidate
// perturbations against one fixed pre-perturbation configuration. It
// prepares the xOld side once at construction and reuses per-goroutine
// workspaces, so each evaluation costs only the candidate-side work; the
// values are bitwise identical to Gamma. It is safe for concurrent use —
// the parallel multi-start selection shares one evaluator across workers.
type GammaEvaluator = core.GammaEvaluator

// NewGammaEvaluator builds a cached γ evaluator for the pre-perturbation
// reactance vector xOld.
func NewGammaEvaluator(n *Network, xOld []float64) *GammaEvaluator {
	return core.NewGammaEvaluator(n, xOld)
}

// PrincipalAngles returns all principal angles between the column spaces
// of the measurement matrices at the two settings (ascending, radians).
func PrincipalAngles(n *Network, xOld, xNew []float64) []float64 {
	return subspace.PrincipalAngles(n.MeasurementMatrix(xOld), n.MeasurementMatrix(xNew))
}

// OperationalCost is the paper's C_MTD metric: the relative OPF cost
// increase of the MTD over the no-MTD optimum.
func OperationalCost(baselineCost, mtdCost float64) float64 {
	return core.OperationalCost(baselineCost, mtdCost)
}

// ---- Scenario layer ---------------------------------------------------------

// Scenario declaratively describes one study — case, loading, attacker
// model, sweep and budgets — and compiles to a deterministic batch of
// evaluation units. Every repeated-evaluation workload (the experiments,
// the examples, mtdscan, the gridmtdd planner service) is a Scenario; the
// runner shares one dispatch-OPF engine per case across all of a
// scenario's units.
type Scenario = scenario.Spec

// ScenarioKind selects a Scenario's workload.
type ScenarioKind = scenario.Kind

// Scenario workload kinds.
const (
	// ScenarioGammaSweep solves problem (4) along a γ-threshold grid
	// (Figs. 6/9, mtdscan, single selection requests).
	ScenarioGammaSweep = scenario.GammaSweep
	// ScenarioDaySweep runs the Section VII-C hourly operating day with one
	// dispatch engine for the whole day (Figs. 10-11, dailyops).
	ScenarioDaySweep = scenario.DaySweep
	// ScenarioRandomKeys draws prior-work random keyspace perturbations
	// under an OPF-cost budget (Figs. 7-8, the random baseline).
	ScenarioRandomKeys = scenario.RandomKeys
	// ScenarioLearning runs the attacker's subspace-learning curve and the
	// MTD staleness probe (Section IV-A).
	ScenarioLearning = scenario.Learning
	// ScenarioPlacement greedily searches D-FACTS device subsets for the
	// deployment maximizing the reachable γ.
	ScenarioPlacement = scenario.Placement
)

// ScenarioRow is one evaluation unit's outcome.
type ScenarioRow = scenario.Row

// ScenarioResult is one executed Scenario.
type ScenarioResult = scenario.Result

// ScenarioRunner executes scenarios against shared per-case engines; one
// long-lived runner amortizes engine construction across runs on the same
// network.
type ScenarioRunner = scenario.Runner

// PlacementSpec parameterizes the placement-study scenario.
type PlacementSpec = scenario.PlacementSpec

// NewScenarioRunner returns an empty scenario runner.
func NewScenarioRunner() *ScenarioRunner { return scenario.NewRunner() }

// RunScenario compiles and executes one scenario on a fresh runner.
func RunScenario(s Scenario) (*ScenarioResult, error) { return scenario.NewRunner().Run(s) }

// ---- Planner service --------------------------------------------------------

// Planner is the long-running, concurrency-safe selection front-end: it
// answers MTD selection, γ-evaluation, day-sweep and placement requests
// with an LRU of factorized cases and a memo of finished responses, so
// repeated and related requests amortize all engine state. cmd/gridmtdd
// serves one over HTTP.
type Planner = planner.Planner

// PlannerConfig tunes a Planner's backend, cache capacities and admission
// control. Each request's fan-outs run on GOMAXPROCS workers.
type PlannerConfig = planner.Config

// PlannerStats counts a Planner's cache traffic.
type PlannerStats = planner.Stats

// Planner request/response pairs.
type (
	SelectRequest     = planner.SelectRequest
	SelectResponse    = planner.SelectResponse
	GammaRequest      = planner.GammaRequest
	GammaResponse     = planner.GammaResponse
	DaySweepRequest   = planner.DaySweepRequest
	DaySweepResponse  = planner.DaySweepResponse
	PlacementRequest  = planner.PlacementRequest
	PlacementResponse = planner.PlacementResponse
)

// ErrGammaUnreachableRequest is returned by Planner.Select when the
// requested γ threshold is beyond the case's D-FACTS reach and no max-γ
// fallback was requested.
var ErrGammaUnreachableRequest = planner.ErrUnreachable

// NewPlanner builds a planner service instance.
func NewPlanner(cfg PlannerConfig) *Planner { return planner.New(cfg) }

// ---- Simulations -----------------------------------------------------------

// LearningConfig configures the attacker's subspace-learning simulation.
type LearningConfig = sim.LearningConfig

// LearningOutcome reports the attacker's subspace estimation error.
type LearningOutcome = sim.LearningOutcome

// SimulateLearning runs the attacker's measurement-driven estimation of
// Col(H) and reports the residual angle to the truth.
func SimulateLearning(n *Network, x []float64, cfg LearningConfig) (*LearningOutcome, error) {
	return sim.SimulateLearning(n, x, cfg)
}

// LearnedModelGamma returns the angle γ between an attacker's learned
// subspace and the true measurement column space at reactances x — large
// after an MTD perturbation, which is exactly the defense's point.
func LearnedModelGamma(n *Network, x []float64, learned *LearningOutcome) float64 {
	return subspace.Gamma(n.MeasurementMatrix(x), learned.Basis)
}

// ---- Load profiles ----------------------------------------------------------

// NYWinterWeekday returns the embedded 24-hour winter-weekday load shape
// (peak-normalized) used by the dynamic-load experiments.
func NYWinterWeekday() []float64 { return loadprofile.NYWinterWeekday() }

// ScaleToPeak rescales a load shape so a network with base total load
// baseTotalMW peaks at peakTotalMW.
func ScaleToPeak(shape []float64, baseTotalMW, peakTotalMW float64) ([]float64, error) {
	return loadprofile.ScaleToPeak(shape, baseTotalMW, peakTotalMW)
}

// HourLabel converts a 24-hour profile index to a clock label.
func HourLabel(i int) string { return loadprofile.HourLabel(i) }

// ---- Small numeric helpers re-exported for example programs ----------------

// Norm1 returns the L1 norm of a vector.
func Norm1(x []float64) float64 { return mat.Norm1(x) }

// Norm2 returns the Euclidean norm of a vector.
func Norm2(x []float64) float64 { return mat.Norm2(x) }
