package gridmtd_test

import (
	"io"
	"math/rand"
	"testing"

	"gridmtd"
	"gridmtd/internal/experiments"
	"gridmtd/internal/mat"
)

// ---- One benchmark per paper table/figure ---------------------------------
//
// Each benchmark regenerates its artifact end to end at Quick quality
// (reduced sampling budgets, same code paths); run cmd/mtdexp for the
// paper-fidelity outputs. The quick-mode bytes are pinned by
// internal/experiments/testdata/golden_quick_all.txt (golden_test.go).

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, experiments.Options{Quality: experiments.Quick}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkFig6a(b *testing.B)  { benchExperiment(b, "fig6a") }
func BenchmarkFig6b(b *testing.B)  { benchExperiment(b, "fig6b") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)   { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)   { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { benchExperiment(b, "fig11") }

// ---- Micro-benchmarks of the hot paths ------------------------------------

// benchState caches the 14-bus pre-perturbation state shared by the micro
// benches.
type benchState struct {
	n   *gridmtd.Network
	xt  []float64
	zt  []float64
	sel *gridmtd.MTDSelection
	set *gridmtd.AttackSet
}

var benchCache *benchState

func setupBench(b *testing.B) *benchState {
	b.Helper()
	if benchCache != nil {
		return benchCache
	}
	n := gridmtd.NewIEEE14()
	pre, err := gridmtd.SolveOPFWithDFACTS(n, gridmtd.DFACTSOPFConfig{Starts: 6, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	zt, err := gridmtd.OperatingMeasurements(n, pre.Reactances)
	if err != nil {
		b.Fatal(err)
	}
	sel, err := gridmtd.SelectMTD(n, pre.Reactances, gridmtd.MTDSelectConfig{
		GammaThreshold: 0.3, Starts: 3, Seed: 2, BaselineCost: pre.CostPerHour,
	})
	if err != nil {
		b.Fatal(err)
	}
	set, err := gridmtd.SampleAttacks(n, pre.Reactances, zt,
		gridmtd.EffectivenessConfig{NumAttacks: 1000, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	benchCache = &benchState{n: n, xt: pre.Reactances, zt: zt, sel: sel, set: set}
	return benchCache
}

// BenchmarkOPF14 measures one dispatch LP solve on the 14-bus system (the
// inner loop of every MTD selection).
func BenchmarkOPF14(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gridmtd.SolveOPF(s.n, s.xt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGamma measures one candidate γ evaluation through the cached
// engine — the form the problem-(4) search and the η' sweeps execute
// thousands of times per selection: H(x_old) is orthonormalized once at
// evaluator construction, so each iteration performs only the
// candidate-side work (building H(x'), one Gram-Schmidt pass, the
// cross-Gram matrix and a 13×13 singular-value computation).
func BenchmarkGamma(b *testing.B) {
	s := setupBench(b)
	ev := gridmtd.NewGammaEvaluator(s.n, s.xt)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.Gamma(s.sel.Reactances)
	}
}

// BenchmarkGammaUncached measures the one-shot path that rebuilds and
// orthonormalizes both measurement matrices per call (the ablation the
// cached engine replaces).
func BenchmarkGammaUncached(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gridmtd.Gamma(s.n, s.xt, s.sel.Reactances)
	}
}

// BenchmarkMeasurementMatrix measures assembling H for the 14-bus system.
func BenchmarkMeasurementMatrix(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.n.MeasurementMatrix(s.xt)
	}
}

// BenchmarkEstimator measures building the estimator (QR factorization).
func BenchmarkEstimator(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gridmtd.NewEstimator(s.n, s.xt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectMTD measures one full problem-(4) solve (multi-start
// search with nested LPs).
func BenchmarkSelectMTD(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gridmtd.SelectMTD(s.n, s.xt, gridmtd.MTDSelectConfig{
			GammaThreshold: 0.3, Starts: 2, Seed: int64(i), BaselineCost: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVD measures the one-sided Jacobi SVD at the measurement-matrix
// size used by the principal-angle computation.
func BenchmarkSVD(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := mat.NewDense(54, 13)
	for i := 0; i < 54; i++ {
		for j := 0; j < 13; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mat.ComputeSVD(a)
	}
}

// BenchmarkQR measures the Householder QR at the same size.
func BenchmarkQR(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a := mat.NewDense(54, 13)
	for i := 0; i < 54; i++ {
		for j := 0; j < 13; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mat.ComputeQR(a)
	}
}

// ---- Ablation benchmarks ---------------------------------------------------

// BenchmarkEffectivenessAnalytic measures the 1000-attack η' evaluation via
// noncentrality thresholding (the fast path used by the keyspace sweeps).
func BenchmarkEffectivenessAnalytic(b *testing.B) {
	s := setupBench(b)
	cfg := gridmtd.EffectivenessConfig{NumAttacks: 1000, Seed: 3}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gridmtd.EvaluateAttacks(s.n, s.set, s.sel.Reactances, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEffectivenessAnalyticWithProbs additionally evaluates the
// per-attack noncentral-χ² probabilities (ablation: what the fast path
// saves).
func BenchmarkEffectivenessAnalyticWithProbs(b *testing.B) {
	s := setupBench(b)
	cfg := gridmtd.EffectivenessConfig{NumAttacks: 1000, Seed: 3, ReportProbs: true}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gridmtd.EvaluateAttacks(s.n, s.set, s.sel.Reactances, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEffectivenessMonteCarlo measures the paper's literal protocol
// (noise-resampling Monte Carlo, 100 noise draws here) for comparison.
func BenchmarkEffectivenessMonteCarlo(b *testing.B) {
	s := setupBench(b)
	cfg := gridmtd.EffectivenessConfig{
		NumAttacks: 100, Seed: 3, MonteCarlo: true, NoiseTrials: 100,
	}
	small, err := gridmtd.SampleAttacks(s.n, s.xt, s.zt, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gridmtd.EvaluateAttacks(s.n, small, s.sel.Reactances, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaxGammaCorners measures the corner-enumeration max-γ probe
// (ablation for the design choice of polling all 2^6 device corners).
func BenchmarkMaxGammaCorners(b *testing.B) {
	s := setupBench(b)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gridmtd.MaxGamma(s.n, s.xt, gridmtd.MaxGammaConfig{
			Starts: 1, Seed: int64(i), BaselineCost: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomKeyWithinCost measures drawing one prior-work keyspace
// key (rejection sampling with nested OPF solves).
func BenchmarkRandomKeyWithinCost(b *testing.B) {
	s := setupBench(b)
	base, err := gridmtd.SolveOPF(s.n, s.xt)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := gridmtd.RandomKeyWithinCost(rng, s.n, base.CostPerHour, 0.05, 0); err != nil {
			b.Fatal(err)
		}
	}
}
