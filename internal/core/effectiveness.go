package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"gridmtd/internal/attack"
	"gridmtd/internal/dcflow"
	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
	"gridmtd/internal/metrics"
	"gridmtd/internal/opf"
	"gridmtd/internal/par"
	"gridmtd/internal/se"
	"gridmtd/internal/stat"
	"gridmtd/internal/subspace"
)

// DefaultDeltas are the detection-probability thresholds plotted in the
// paper's Fig. 6.
var DefaultDeltas = []float64{0.5, 0.8, 0.9, 0.95}

// EffectivenessConfig controls the η'(δ) evaluation. The zero value is
// completed with the paper's simulation protocol: 1000 random attacks with
// ‖a‖₁/‖z‖₁ ≈ 0.08, false-positive rate 5×10⁻⁴, and the analytic
// detection probability. The paper does not state its noise level; the
// default σ = 0.0015 p.u. (0.15 MW on the 100 MVA base) was calibrated so
// the η'(δ) curves land in the paper's Fig.-6 operating range (the quick
// Fig. 6 curves are pinned in internal/experiments/testdata/golden_quick_all.txt).
type EffectivenessConfig struct {
	// NumAttacks is the number of random stealthy attacks (default 1000).
	NumAttacks int
	// AttackRatio is the ‖a‖₁/‖z‖₁ scaling (default 0.08).
	AttackRatio float64
	// Sigma is the measurement noise standard deviation in per-unit
	// (default 0.0015).
	Sigma float64
	// Alpha is the BDD false-positive rate (default 5e-4).
	Alpha float64
	// Deltas are the detection-probability thresholds (default
	// DefaultDeltas).
	Deltas []float64
	// Seed seeds the attack sampler (and noise sampler under Monte Carlo).
	Seed int64
	// MonteCarlo switches from the analytic noncentral-χ² detection
	// probability to noise-resampling Monte Carlo (the paper's literal
	// protocol; slower, statistically identical — see the cross-validation
	// tests).
	MonteCarlo bool
	// NoiseTrials is the number of noise draws per attack under Monte
	// Carlo (default 1000).
	NoiseTrials int
	// ReportProbs requests the per-attack detection probabilities in
	// EffectivenessResult.DetectionProbs. Under the analytic path η'(δ) is
	// computed by noncentrality thresholding without evaluating per-attack
	// probabilities, so reporting them costs extra; sweeps that only need
	// η' leave this false. Monte Carlo always reports them.
	ReportProbs bool
	// GammaBackend is accepted for compatibility and ignored: every γ
	// backend name is an alias of the exact evaluator (see GammaBackend).
	GammaBackend GammaBackend
	// Estimators is accepted for compatibility and ignored: an evaluation
	// that needs the post-MTD estimator (Monte Carlo, ReportProbs, an
	// attack on a residual re-check band, a candidate the residual kernel
	// declines, the small-case path) builds it with se.NewEstimator.
	Estimators *EstimatorCache `json:"-"`
}

func (c EffectivenessConfig) withDefaults() EffectivenessConfig {
	if c.NumAttacks <= 0 {
		c.NumAttacks = 1000
	}
	if c.AttackRatio <= 0 {
		c.AttackRatio = 0.08
	}
	if c.Sigma <= 0 {
		c.Sigma = 0.0015
	}
	if c.Alpha <= 0 {
		c.Alpha = 5e-4
	}
	if len(c.Deltas) == 0 {
		c.Deltas = DefaultDeltas
	}
	if c.NoiseTrials <= 0 {
		c.NoiseTrials = 1000
	}
	return c
}

// estStats counts post-MTD estimator builds on fast attack sets
// process-wide, like the lp package's global revised-simplex counters:
// one snapshot call for /v1/stats.
var estStats metrics.Sum[EstimatorCacheStats]

// EstimatorCacheStats is a snapshot of the process-wide estimator
// counters, served as the /v1/stats "estimators" block.
type EstimatorCacheStats struct {
	// Hits is always 0: no estimator is memoized.
	Hits int `json:"hits"`
	// Misses counts post-MTD estimator builds on fast attack sets.
	Misses int `json:"misses"`
	// FastBuilds is always 0: every build is a full QR.
	FastBuilds int `json:"fast_builds"`
	// FullQRs equals Misses.
	FullQRs int `json:"full_qrs"`
}

// GlobalEstimatorCacheStats returns the process-wide estimator counters.
func GlobalEstimatorCacheStats() EstimatorCacheStats { return estStats.Load() }

// EstimatorCache is accepted for compatibility and holds nothing: post-MTD
// estimators are no longer memoized (see EffectivenessConfig.Estimators).
type EstimatorCache struct{}

// NewEstimatorCache returns an EstimatorCache; both arguments are ignored.
func NewEstimatorCache(*grid.Network, int) *EstimatorCache { return &EstimatorCache{} }

// EffectivenessResult reports the MTD quality metrics for one perturbation.
type EffectivenessResult struct {
	// Gamma is the subspace separation γ(H_old, H_new) (largest principal
	// angle; see internal/subspace).
	Gamma float64
	// Deltas are the evaluated thresholds.
	Deltas []float64
	// Eta[i] is η'(Deltas[i]): the fraction of attacks with detection
	// probability at least Deltas[i].
	Eta []float64
	// DetectionProbs holds P'_D(a) for each sampled attack when requested
	// via EffectivenessConfig.ReportProbs or Monte Carlo (nil otherwise).
	DetectionProbs []float64
	// UndetectableFraction is the fraction of sampled attacks that remain
	// perfectly stealthy under the new matrix (Proposition-1 condition,
	// detection probability = false-positive rate).
	UndetectableFraction float64
}

// EtaAt returns η'(δ) for an evaluated threshold δ, or an error if δ was
// not in the configured set.
func (r *EffectivenessResult) EtaAt(delta float64) (float64, error) {
	for i, d := range r.Deltas {
		if d == delta {
			return r.Eta[i], nil
		}
	}
	return 0, fmt.Errorf("core: delta %v was not evaluated", delta)
}

// AttackSet is a batch of pre-crafted stealthy attacks, reusable across
// many candidate perturbations (the paper's Figs. 6-8 evaluate the same
// 1000-attack set against every MTD). The attacks are packed into one
// contiguous backing array (see attack.Batch). Every γ evaluation against
// the set goes through one exact GammaEvaluator for the crafting
// configuration x_old, so it is prepared once and an evaluation's γ is
// the same bits core.Gamma and /v1/gamma serve; on fast sets that
// evaluator's rank-|S| kernel also scores the attack residuals.
type AttackSet struct {
	// Batch holds the crafted attacks a = H_old·c, one per row.
	Batch *attack.Batch
	// HOld is the measurement matrix the attacks were crafted against.
	HOld *mat.Dense

	// fast selects the large-case path (set by SampleAttacks when the
	// network is at or above grid.SparseThreshold buses and the grid
	// backend is not forced dense).
	fast  bool
	gamma *GammaEvaluator // exact γ against x_old
}

// Len returns the number of attacks in the set.
func (s *AttackSet) Len() int {
	if s.Batch == nil {
		return 0
	}
	return s.Batch.Len()
}

// SampleAttacks draws cfg.NumAttacks random stealthy attacks against the
// configuration xOld with operating measurements zOld.
func SampleAttacks(n *grid.Network, xOld, zOld []float64, cfg EffectivenessConfig) (*AttackSet, error) {
	cfg = cfg.withDefaults()
	if len(zOld) != n.M() {
		return nil, errors.New("core: operating measurement vector has wrong length")
	}
	hOld := n.MeasurementMatrix(xOld)
	rng := rand.New(rand.NewSource(cfg.Seed))
	batch, err := attack.RandomBatch(rng, hOld, zOld, cfg.AttackRatio, cfg.NumAttacks)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &AttackSet{
		Batch: batch,
		HOld:  hOld,
		// Same backend-resolved seam as NewGammaEvaluator: -backend dense
		// keeps the bitwise path even on large cases.
		fast:  grid.EffectiveBackend(n, grid.AutoBackend) == grid.SparseBackend,
		gamma: NewGammaEvaluator(n, xOld),
	}, nil
}

// Gamma returns the set's exact γ evaluator against the crafting
// configuration x_old. A selection against the same x_old shares it
// (NewEnginesShared), so x_old is prepared once.
func (s *AttackSet) Gamma() *GammaEvaluator { return s.gamma }

// EvaluateAttacks computes the effectiveness of the perturbation xNew
// against a pre-crafted attack set. The analytic path scores the attacks
// on GOMAXPROCS workers; every number it produces is identical for every
// worker count. The Monte Carlo path is sequential (one noise stream).
//
// On a fast set the analytic path without per-attack probabilities scores
// each attack a = H_old·c exactly from the rank-|S| kernel of the set's γ
// evaluator (subspace.ResidualMap): ‖(I−Γ′)a‖ = ‖P·b‖, with b the angle
// differences of c across the changed branches, and no post-MTD estimator
// is built. An attack within recheckBand of a decision threshold (a δ
// noncentrality threshold or the 1e-8·‖a‖ undetectability cutoff) is
// re-scored with the estimator, so η′(δ) and UndetectableFraction are the
// estimator path's. Monte Carlo, ReportProbs, the small-case and dense
// paths, and candidates the kernel declines keep the estimator throughout.
func EvaluateAttacks(n *grid.Network, set *AttackSet, xNew []float64, cfg EffectivenessConfig) (*EffectivenessResult, error) {
	cfg = cfg.withDefaults()
	if set.Len() == 0 {
		return nil, errors.New("core: empty attack set")
	}
	var resid *subspace.ResidualMap
	if set.fast && !cfg.MonteCarlo && !cfg.ReportProbs {
		resid = set.gamma.residuals(xNew)
	}
	var est *se.Estimator
	// ensureEst builds the post-MTD estimator on demand: up front unless
	// the kernel scores the attacks, lazily for its re-checks otherwise.
	// Builds on fast sets are counted (GlobalEstimatorCacheStats).
	ensureEst := func() (*se.Estimator, error) {
		if est == nil {
			if set.fast {
				estStats.Add(EstimatorCacheStats{Misses: 1, FullQRs: 1})
			}
			e, err := se.NewEstimator(n.MeasurementMatrix(xNew))
			if err != nil {
				return nil, fmt.Errorf("core: post-MTD estimator: %w", err)
			}
			est = e
		}
		return est, nil
	}
	var bdd *se.BDD
	if resid != nil {
		b, err := se.NewBDDForDOF(n.M()-(n.N()-1), cfg.Sigma, cfg.Alpha)
		if err != nil {
			return nil, fmt.Errorf("core: post-MTD BDD: %w", err)
		}
		bdd = b
	} else {
		if _, err := ensureEst(); err != nil {
			return nil, err
		}
		b, err := se.NewBDD(est, cfg.Sigma, cfg.Alpha)
		if err != nil {
			return nil, fmt.Errorf("core: post-MTD BDD: %w", err)
		}
		bdd = b
	}

	numAtt := set.Len()
	eta := make([]float64, len(cfg.Deltas))
	var probs []float64
	undetectable := 0

	if cfg.MonteCarlo {
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		probs = make([]float64, numAtt)
		for k := 0; k < numAtt; k++ {
			a := set.Batch.A(k)
			if est.IsStealthy(a, 0) {
				undetectable++
			}
			probs[k] = est.DetectionProbabilityMC(bdd, a, cfg.NoiseTrials, rng)
		}
		for i, d := range cfg.Deltas {
			eta[i] = stat.FractionAtLeast(probs, d)
		}
	} else {
		x := (bdd.Tau / bdd.Sigma) * (bdd.Tau / bdd.Sigma)
		dof := float64(bdd.DOF)
		raThresh, err := residualThresholds(bdd, cfg.Deltas)
		if err != nil {
			return nil, err
		}
		ras := make([]float64, numAtt)
		if cfg.ReportProbs {
			probs = make([]float64, numAtt)
		}
		if resid != nil {
			undetectable, err = set.kernelResiduals(n, resid, raThresh, ras, ensureEst)
		} else {
			undet := make([]bool, numAtt)
			var errs []error
			if probs != nil {
				errs = make([]error, numAtt)
			}
			par.For(numAtt, func() func(int) {
				var ws se.ResidualWorkspace
				return func(k int) {
					a := set.Batch.A(k)
					ra := est.ResidualWS(&ws, a)
					ras[k] = ra
					undet[k] = ra <= 1e-8*mat.Norm2(a)
					if probs != nil {
						lambda := (ra / bdd.Sigma) * (ra / bdd.Sigma)
						pd, err := stat.NoncentralChiSquareSF(dof, lambda, x)
						if err != nil {
							errs[k] = fmt.Errorf("core: detection probability: %w", err)
						}
						probs[k] = pd
					}
				}
			})
			for _, err := range errs {
				if err != nil {
					return nil, err
				}
			}
			undetectable = countTrue(undet)
		}
		if err != nil {
			return nil, err
		}
		for i, thresh := range raThresh {
			cnt := 0
			for _, ra := range ras {
				if ra >= thresh {
					cnt++
				}
			}
			eta[i] = float64(cnt) / float64(numAtt)
		}
	}

	gamma := set.gamma.Gamma(xNew)

	return &EffectivenessResult{
		Gamma:                gamma,
		Deltas:               mat.CopyVec(cfg.Deltas),
		Eta:                  eta,
		DetectionProbs:       probs,
		UndetectableFraction: float64(undetectable) / float64(numAtt),
	}, nil
}

// residualThresholds returns, per δ, the residual ‖(I−Γ′)a‖ at which an
// attack's analytic detection probability reaches δ: P′_D(a) ≥ δ iff the
// residual meets the noncentrality threshold σ·sqrt(λ_δ) (+Inf for δ ≥ 1).
func residualThresholds(bdd *se.BDD, deltas []float64) ([]float64, error) {
	x := (bdd.Tau / bdd.Sigma) * (bdd.Tau / bdd.Sigma)
	th := make([]float64, len(deltas))
	for i, d := range deltas {
		if d >= 1 {
			th[i] = math.Inf(1)
			continue
		}
		lambda, err := lambdaForSFCached(float64(bdd.DOF), x, d)
		if err != nil {
			return nil, fmt.Errorf("core: inverting detection probability: %w", err)
		}
		th[i] = bdd.Sigma * math.Sqrt(lambda)
	}
	return th, nil
}

// recheckBand is the relative half-width of the band around each residual
// decision threshold inside which a kernel residual is re-scored with the
// estimator. The kernel agrees with the estimator to about 1e-13
// relative, so decisions outside the band are the estimator's.
const recheckBand = 1e-9

// kernelResiduals fills ras with every attack's residual under the
// candidate of resid and returns the number of undetectable attacks. An
// attack within recheckBand of a threshold in raThresh or of its
// undetectability cutoff 1e-8·‖a‖ is re-scored with the estimator.
func (s *AttackSet) kernelResiduals(n *grid.Network, resid *subspace.ResidualMap, raThresh, ras []float64, ensureEst func() (*se.Estimator, error)) (int, error) {
	numAtt := s.Len()
	branches := resid.Branches()
	recheck := make([]bool, numAtt)
	undet := make([]bool, numAtt)
	par.For(numAtt, func() func(int) {
		b := make([]float64, len(branches))
		return func(k int) {
			ra := resid.Norm(n.BranchAngleDiffsInto(b, branches, s.Batch.C(k)))
			ras[k] = ra
			cut := 1e-8 * mat.Norm2(s.Batch.A(k))
			if math.Abs(ra-cut) <= recheckBand*cut {
				recheck[k] = true
				return
			}
			for _, th := range raThresh {
				if !math.IsInf(th, 1) && math.Abs(ra-th) <= recheckBand*th {
					recheck[k] = true
					return
				}
			}
			undet[k] = ra <= cut
		}
	})
	var ws se.ResidualWorkspace
	for k, again := range recheck {
		if !again {
			continue
		}
		est, err := ensureEst()
		if err != nil {
			return 0, err
		}
		a := s.Batch.A(k)
		ras[k] = est.ResidualWS(&ws, a)
		undet[k] = ras[k] <= 1e-8*mat.Norm2(a)
	}
	return countTrue(undet), nil
}

// countTrue returns the number of set flags.
func countTrue(flags []bool) int {
	cnt := 0
	for _, f := range flags {
		if f {
			cnt++
		}
	}
	return cnt
}

// lambdaKey identifies one noncentrality inversion.
type lambdaKey struct{ dof, x, delta float64 }

// lambdaCache memoizes stat.NoncentralChiSquareLambdaForSF. The inversion
// bisects the noncentral-χ² survival function (dozens of incomplete-gamma
// evaluations) yet depends only on the detector geometry (DOF, τ²/σ²) and
// the threshold δ — constants across an entire η′ sweep — so caching it
// removes roughly half the analytic evaluation cost. Cached values are the
// function's own outputs, so results are unchanged.
var lambdaCache sync.Map // lambdaKey -> float64

func lambdaForSFCached(dof, x, delta float64) (float64, error) {
	key := lambdaKey{dof, x, delta}
	if v, ok := lambdaCache.Load(key); ok {
		return v.(float64), nil
	}
	lambda, err := stat.NoncentralChiSquareLambdaForSF(dof, x, delta)
	if err != nil {
		return 0, err
	}
	lambdaCache.Store(key, lambda)
	return lambda, nil
}

// Effectiveness evaluates the MTD that changes the reactances from xOld
// (the configuration the attacker learned) to xNew. zOld is the operating
// measurement vector under xOld used for attack scaling (see
// OperatingMeasurements). It samples stealthy attacks a = H(xOld)·c,
// computes each attack's detection probability under H(xNew), and reduces
// them to the η'(δ) curve.
func Effectiveness(n *grid.Network, xOld, xNew, zOld []float64, cfg EffectivenessConfig) (*EffectivenessResult, error) {
	set, err := SampleAttacks(n, xOld, zOld, cfg)
	if err != nil {
		return nil, err
	}
	return EvaluateAttacks(n, set, xNew, cfg)
}

// OperatingMeasurements solves the dispatch OPF at reactances x and returns
// the noiseless measurement vector z = [p; f; −f] (per-unit) of the
// resulting operating point. This is the z against which attack magnitudes
// are scaled. It builds a dispatch engine for the one solve; callers that
// hold the engine the operating point came from use
// OperatingMeasurementsWith, which gives the same bits on an engine of the
// size-picked backend (and that backend's bits on any other).
func OperatingMeasurements(n *grid.Network, x []float64) ([]float64, error) {
	eng, err := opf.NewDispatchEngine(n)
	if err != nil {
		return nil, fmt.Errorf("core: operating point: %w", err)
	}
	return OperatingMeasurementsWith(eng, x)
}

// OperatingMeasurementsWith is OperatingMeasurements on an existing
// dispatch engine. z comes from the engine's own Result: the dispatch's
// injections and the flows of its verifying DC power flow, which are the
// bits dcflow.Solve gives for that dispatch. On the sparse path the
// dispatch is a memo hit whenever the engine has already solved x (a
// baseline OPF at its optimum always has), so no LP and no second
// factorizer run.
func OperatingMeasurementsWith(eng *opf.DispatchEngine, x []float64) ([]float64, error) {
	res, err := eng.Solve(x)
	if err != nil {
		return nil, fmt.Errorf("core: operating point: %w", err)
	}
	n := eng.Network()
	return dcflow.Measurements(n, n.InjectionsMW(res.DispatchMW), &dcflow.Result{ThetaRad: res.ThetaRad, FlowsMW: res.FlowsMW}), nil
}

// Gamma returns the subspace separation γ between the measurement matrices
// at the two reactance settings: the exact path of a GammaEvaluator built
// for xOld, the same γ engine the selection search runs. Below
// grid.SparseThreshold buses, or when the resolved grid backend is dense
// (-backend dense), its float operations are the reference pipeline's and
// the result is bitwise subspace.Gamma(H(xOld), H(xNew)). Otherwise it is
// the rank-|S| update kernel's answer over the branches whose reactance
// differs between xOld and xNew (the reference Gram-Schmidt when the
// kernel declines), within 1e-9 of the reference. A call pays for the
// xOld side: on the kernel path one sparse Cholesky of H(xOld)ᵀH(xOld)
// and the blocked solves over D ∪ F (the D-FACTS lines and the lines off
// them where xOld differs from the case; plus s more solves when xNew
// changes lines outside that set), which dominate it; callers evaluating
// many xNew against one xOld should hold the evaluator instead.
func Gamma(n *grid.Network, xOld, xNew []float64) float64 {
	return NewGammaEvaluator(n, xOld).Gamma(xNew)
}
