package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"gridmtd/internal/attack"
	"gridmtd/internal/dcflow"
	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
	"gridmtd/internal/opf"
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
// the η'(δ) curves land in the paper's Fig.-6 operating range (see
// EXPERIMENTS.md).
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
	// Parallelism bounds the number of workers the analytic per-attack
	// loop fans out over (0 = GOMAXPROCS, 1 = serial). Results are
	// identical for every setting. The Monte Carlo path is inherently
	// sequential (one noise stream) and ignores it.
	Parallelism int
	// GammaBackend is accepted for compatibility and ignored: every γ
	// backend name is an alias of the exact evaluator (see GammaBackend).
	GammaBackend GammaBackend
	// Estimators optionally memoizes the post-MTD estimator per candidate
	// x_new (see EstimatorCache). Only fast attack sets (large-case sparse
	// backend) consult it, when they need an estimator at all: Monte Carlo,
	// ReportProbs, an attack on a residual re-check band, or a candidate
	// the residual kernel declines. The small-case path keeps its
	// historical bitwise construction; nil keeps it everywhere.
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

// At materializes attack i as a standalone vector (copies).
func (s *AttackSet) At(i int) *attack.Vector { return s.Batch.At(i) }

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

// EvaluateAttacks computes the effectiveness of the perturbation xNew
// against a pre-crafted attack set. The analytic path scores the attacks
// in parallel chunks (cfg.Parallelism workers); every number it produces
// is identical for every worker count.
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
	// Fast sets with a cache take the memoized rank-structured build
	// (1e-9-agreement contract); the bitwise dense path never does.
	ensureEst := func() (*se.Estimator, error) {
		if est == nil {
			if set.fast && cfg.Estimators != nil {
				e, err := cfg.Estimators.Get(n, xNew)
				if err != nil {
					return nil, fmt.Errorf("core: post-MTD estimator: %w", err)
				}
				est = e
				return est, nil
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
			undetectable, err = set.kernelResiduals(n, resid, raThresh, ras, cfg.Parallelism, ensureEst)
		} else {
			undetectable, err = forEachAttackChunk(numAtt, cfg.Parallelism, func(from, to int) (int, error) {
				var ws se.ResidualWorkspace
				undet := 0
				for k := from; k < to; k++ {
					a := set.Batch.A(k)
					ra := est.ResidualWS(&ws, a)
					ras[k] = ra
					if ra <= 1e-8*mat.Norm2(a) {
						undet++
					}
					if probs != nil {
						lambda := (ra / bdd.Sigma) * (ra / bdd.Sigma)
						pd, err := stat.NoncentralChiSquareSF(dof, lambda, x)
						if err != nil {
							return undet, fmt.Errorf("core: detection probability: %w", err)
						}
						probs[k] = pd
					}
				}
				return undet, nil
			})
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

	gamma := set.gamma.GammaExact(xNew)

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
func (s *AttackSet) kernelResiduals(n *grid.Network, resid *subspace.ResidualMap, raThresh, ras []float64, parallelism int, ensureEst func() (*se.Estimator, error)) (int, error) {
	numAtt := s.Len()
	branches := resid.Branches()
	recheck := make([]bool, numAtt)
	undet, _ := forEachAttackChunk(numAtt, parallelism, func(from, to int) (int, error) {
		b := make([]float64, len(branches))
		undet := 0
		for k := from; k < to; k++ {
			ra := resid.Norm(n.BranchAngleDiffsInto(b, branches, s.Batch.C(k)))
			ras[k] = ra
			cut := 1e-8 * mat.Norm2(s.Batch.A(k))
			if math.Abs(ra-cut) <= recheckBand*cut {
				recheck[k] = true
				continue
			}
			for _, th := range raThresh {
				if !math.IsInf(th, 1) && math.Abs(ra-th) <= recheckBand*th {
					recheck[k] = true
					break
				}
			}
			if !recheck[k] && ra <= cut {
				undet++
			}
		}
		return undet, nil
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
		if ras[k] <= 1e-8*mat.Norm2(a) {
			undet++
		}
	}
	return undet, nil
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

// forEachAttackChunk splits [0, n) into contiguous chunks, runs fn on each
// (concurrently when parallelism allows), and returns the summed int
// results plus the error of the lowest-indexed failing chunk. With
// contiguous ascending chunks and per-index output slots the combined
// result is independent of the worker count.
func forEachAttackChunk(n, parallelism int, fn func(from, to int) (int, error)) (int, error) {
	workers := parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return fn(0, n)
	}
	counts := make([]int, workers)
	errs := make([]error, workers)
	per := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		from := w * per
		to := from + per
		if to > n {
			to = n
		}
		if from >= to {
			continue
		}
		wg.Add(1)
		go func(w, from, to int) {
			defer wg.Done()
			counts[w], errs[w] = fn(from, to)
		}(w, from, to)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	for _, err := range errs {
		if err != nil {
			return total, err
		}
	}
	return total, nil
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
// are scaled.
func OperatingMeasurements(n *grid.Network, x []float64) ([]float64, error) {
	res, err := opf.SolveDispatch(n, x)
	if err != nil {
		return nil, fmt.Errorf("core: operating point: %w", err)
	}
	inj := n.InjectionsMW(res.DispatchMW)
	fl, err := dcflow.Solve(n, x, inj)
	if err != nil {
		return nil, err
	}
	return dcflow.Measurements(n, inj, fl), nil
}

// Gamma returns the subspace separation γ between the measurement matrices
// at the two reactance settings: the exact path of a GammaEvaluator built
// for xOld, the same γ engine the selection search runs. Below
// grid.SparseThreshold buses, or when the resolved grid backend is dense
// (-backend dense), its float operations are the reference pipeline's and
// the result is bitwise subspace.Gamma(H(xOld), H(xNew)). Otherwise it is
// the rank-|S| update kernel's answer over the branches whose reactance
// differs between xOld and xNew (the Gram-Schmidt on the reduced
// [p; √2·f] rows when the kernel declines), within 1e-9 of the reference.
// A call pays for the xOld basis, which dominates it; callers evaluating
// many xNew against one xOld should hold the evaluator instead.
func Gamma(n *grid.Network, xOld, xNew []float64) float64 {
	return NewGammaEvaluator(n, xOld).Gamma(xNew)
}
