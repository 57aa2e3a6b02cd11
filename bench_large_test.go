package gridmtd_test

import (
	"encoding/json"
	"math/rand"
	"testing"

	"gridmtd"
	"gridmtd/internal/core"
	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
	"gridmtd/internal/opf"
	"gridmtd/internal/planner"
)

// ---- Large-case benchmarks: dense vs sparse backend ------------------------
//
// These measure the dense→sparse crossover recorded in PERF.md: the same
// dispatch-OPF and B-factorization work through both backends on every
// registered case size. Run with:
//
//	go test -run '^$' -bench 'Backend|IEEE118' -benchtime 1s .

func benchCase(b *testing.B, name string) *gridmtd.Network {
	b.Helper()
	n, err := gridmtd.CaseByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// benchEngineCost measures one dispatch-OPF Cost evaluation (factorization
// + PTDF + LP) through an explicit backend — the per-candidate unit of the
// problem-(4) search, measured through an engine session exactly as the
// search workers run it. On the sparse backend the session carries the
// warm LP basis across iterations (the benchmark's fixed x is the
// best case for it: the basis is optimal after the first solve); the
// perturbed variants below measure the realistic local-search pattern.
func benchEngineCost(b *testing.B, caseName string, backend grid.Backend) {
	n := benchCase(b, caseName)
	eng, err := opf.NewDispatchEngineBackend(n, backend)
	if err != nil {
		b.Fatal(err)
	}
	sess := eng.NewSession()
	x := n.Reactances()
	if _, err := sess.Cost(x); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Cost(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOPF30DenseBackend(b *testing.B)   { benchEngineCost(b, "ieee30", grid.DenseBackend) }
func BenchmarkOPF30SparseBackend(b *testing.B)  { benchEngineCost(b, "ieee30", grid.SparseBackend) }
func BenchmarkOPF57DenseBackend(b *testing.B)   { benchEngineCost(b, "ieee57", grid.DenseBackend) }
func BenchmarkOPF57SparseBackend(b *testing.B)  { benchEngineCost(b, "ieee57", grid.SparseBackend) }
func BenchmarkOPF118DenseBackend(b *testing.B)  { benchEngineCost(b, "ieee118", grid.DenseBackend) }
func BenchmarkOPF118SparseBackend(b *testing.B) { benchEngineCost(b, "ieee118", grid.SparseBackend) }

// benchEngineCostPerturbed walks the candidate through a pre-drawn cycle
// of nearby D-FACTS settings — the Nelder-Mead access pattern the warm
// start is built for: every solve sees a slightly different PTDF, so the
// sparse path pays real dual pivots instead of a pure basis hit.
func benchEngineCostPerturbed(b *testing.B, caseName string, backend grid.Backend) {
	n := benchCase(b, caseName)
	eng, err := opf.NewDispatchEngineBackend(n, backend)
	if err != nil {
		b.Fatal(err)
	}
	sess := eng.NewSession()
	lo, hi := n.DFACTSBounds()
	rng := rand.New(rand.NewSource(9))
	const cycle = 32
	xs := make([][]float64, cycle)
	xd := make([]float64, len(lo))
	for i := range xd {
		xd[i] = 0.5 * (lo[i] + hi[i])
	}
	for c := range xs {
		for i := range xd {
			xd[i] += 0.05 * (hi[i] - lo[i]) * (2*rng.Float64() - 1)
			if xd[i] < lo[i] {
				xd[i] = lo[i]
			}
			if xd[i] > hi[i] {
				xd[i] = hi[i]
			}
		}
		xs[c] = n.ExpandDFACTS(xd)
	}
	if _, err := sess.Cost(xs[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Cost(xs[i%cycle]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOPF118DensePerturbed(b *testing.B) {
	benchEngineCostPerturbed(b, "ieee118", grid.DenseBackend)
}
func BenchmarkOPF118WarmPerturbed(b *testing.B) {
	benchEngineCostPerturbed(b, "ieee118", grid.SparseBackend)
}
func BenchmarkOPF57WarmPerturbed(b *testing.B) {
	benchEngineCostPerturbed(b, "ieee57", grid.SparseBackend)
}

// benchBFactor measures the raw backend unit: refactor B_r(x) and build the
// PTDF (the reactance-dependent work of one OPF candidate, without the LP).
func benchBFactor(b *testing.B, caseName string, backend grid.Backend) {
	n := benchCase(b, caseName)
	f := grid.NewBFactorizerBackend(n, backend)
	x := n.Reactances()
	ptdf := mat.NewDense(n.L(), n.N()-1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := f.Reset(x); err != nil {
			b.Fatal(err)
		}
		if err := f.PTDFInto(ptdf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBFactorPTDF30Dense(b *testing.B)   { benchBFactor(b, "ieee30", grid.DenseBackend) }
func BenchmarkBFactorPTDF30Sparse(b *testing.B)  { benchBFactor(b, "ieee30", grid.SparseBackend) }
func BenchmarkBFactorPTDF57Dense(b *testing.B)   { benchBFactor(b, "ieee57", grid.DenseBackend) }
func BenchmarkBFactorPTDF57Sparse(b *testing.B)  { benchBFactor(b, "ieee57", grid.SparseBackend) }
func BenchmarkBFactorPTDF118Dense(b *testing.B)  { benchBFactor(b, "ieee118", grid.DenseBackend) }
func BenchmarkBFactorPTDF118Sparse(b *testing.B) { benchBFactor(b, "ieee118", grid.SparseBackend) }

// BenchmarkGammaIEEE118 measures one cached candidate-γ evaluation on the
// 118-bus system: the exact engine's rank-|S| update over the 12 changed
// D-FACTS branches, an s×s eigenproblem over Gram blocks gathered from
// the x_old side (the reference Gram-Schmidt on the full H is the
// fallback).
func BenchmarkGammaIEEE118(b *testing.B) {
	n := benchCase(b, "ieee118")
	x := n.Reactances()
	lo, hi := n.DFACTSBounds()
	xd := make([]float64, len(lo))
	for i := range xd {
		xd[i] = 0.25*lo[i] + 0.75*hi[i]
	}
	ev := gridmtd.NewGammaEvaluator(n, x)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.GammaDFACTS(xd)
	}
}

// BenchmarkGammaOneShotIEEE118 measures gridmtd.Gamma on the 118-bus
// system at the same candidate: both bases are built per call, the cost a
// caller without a held evaluator pays.
func BenchmarkGammaOneShotIEEE118(b *testing.B) {
	n := benchCase(b, "ieee118")
	x := n.Reactances()
	lo, hi := n.DFACTSBounds()
	xd := make([]float64, len(lo))
	for i := range xd {
		xd[i] = 0.25*lo[i] + 0.75*hi[i]
	}
	xNew := n.ExpandDFACTS(xd)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gridmtd.Gamma(n, x, xNew)
	}
}

// benchGammaBackend measures one cached candidate-γ evaluation through the
// exact evaluator's rank-|S| kernel. The candidate sits at the 75% point of
// the device box, the same point BenchmarkGammaIEEE118 uses.
func benchGammaBackend(b *testing.B, caseName string) {
	n := benchCase(b, caseName)
	x := n.Reactances()
	lo, hi := n.DFACTSBounds()
	xd := make([]float64, len(lo))
	for i := range xd {
		xd[i] = 0.25*lo[i] + 0.75*hi[i]
	}
	ev := gridmtd.NewGammaEvaluator(n, x)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.GammaDFACTS(xd)
	}
}

func BenchmarkGammaBackend118Exact(b *testing.B) { benchGammaBackend(b, "ieee118") }
func BenchmarkGammaBackend300Exact(b *testing.B) { benchGammaBackend(b, "ieee300") }

// benchGammaEvaluatorBuild measures the x_old preparation of the exact γ
// evaluator: the sparse Cholesky of H(x_old)ᵀH(x_old) and the blocked
// solves that form the kernel's Gram blocks over the D-FACTS lines.
func benchGammaEvaluatorBuild(b *testing.B, caseName string) {
	n := benchCase(b, caseName)
	x := n.Reactances()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gridmtd.NewGammaEvaluator(n, x)
	}
}

func BenchmarkGammaEvaluatorBuild118(b *testing.B) { benchGammaEvaluatorBuild(b, "ieee118") }
func BenchmarkGammaEvaluatorBuild300(b *testing.B) { benchGammaEvaluatorBuild(b, "ieee300") }

// BenchmarkGammaExplicitXOld300 measures one candidate γ on the 300-bus
// system against an attacker-known x_old that is not a D-FACTS setting of
// the case: its first N/2+1 lines off the D-FACTS set scaled by 1.1. The
// candidate, the 75% point of the device box, changes those 151 lines and
// the 12 D-FACTS lines; the evaluator formed the kernel's blocks over
// them at construction, so the evaluation only gathers sub-blocks.
func BenchmarkGammaExplicitXOld300(b *testing.B) {
	n := benchCase(b, "ieee300")
	xOld := n.Reactances()
	for l, changed := 0, 0; changed < n.N()/2+1; l++ {
		if !n.Branches[l].HasDFACTS {
			xOld[l] *= 1.1
			changed++
		}
	}
	lo, hi := n.DFACTSBounds()
	xd := make([]float64, len(lo))
	for i := range xd {
		xd[i] = 0.25*lo[i] + 0.75*hi[i]
	}
	ev := gridmtd.NewGammaEvaluator(n, xOld)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ev.GammaDFACTS(xd)
	}
}

// BenchmarkDispatchBuild118 measures one dispatch-LP build on the 118-bus
// system at the 75% point of the D-FACTS box: the B_r refactorization, one
// blocked solve for the generator PTDF columns and the load flow, and the
// inequality rows written from the block.
func BenchmarkDispatchBuild118(b *testing.B) {
	n := benchCase(b, "ieee118")
	eng, err := opf.NewDispatchEngine(n)
	if err != nil {
		b.Fatal(err)
	}
	sess := eng.NewSession()
	lo, hi := n.DFACTSBounds()
	xd := make([]float64, len(lo))
	for i := range xd {
		xd[i] = 0.25*lo[i] + 0.75*hi[i]
	}
	x := n.ExpandDFACTS(xd)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sess.BuildProblem(x); err != nil {
			b.Fatal(err)
		}
	}
}

// benchColdSelect measures one cold planner selection — a fresh planner
// per iteration, so nothing is memoized and the measured time is the full
// request: case build, baseline OPF, multi-start search, attack
// sampling/evaluation and the γ/η' reporting. This is the end-to-end
// latency PERF.md's cold-selection table records, at the CI smoke point
// (γ_th 0.05, 1 start, 30 evals, 20 attacks, "sketch" γ alias, as the
// cold-118 benchmark workload sends it).
func benchColdSelect(b *testing.B, caseName string) {
	req := planner.SelectRequest{
		Case: caseName, GammaThreshold: 0.05,
		Starts: 1, MaxEvals: 30, Seed: 1, Attacks: 20,
		GammaBackend: "sketch",
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := planner.New(planner.Config{})
		if _, err := p.Select(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColdSelect118(b *testing.B) { benchColdSelect(b, "ieee118") }
func BenchmarkColdSelect300(b *testing.B) { benchColdSelect(b, "ieee300") }

// BenchmarkGammaRequest118 measures the request path of one /v1/gamma
// call on the 118-bus system without the HTTP hop: decode a pre-marshaled
// body for a new D-FACTS setting, then planner.Gamma (checks, memo key,
// memo miss and the exact γ against the nominal x_old). The bodies cycle
// through more settings than the response memo holds, so every iteration
// computes.
func BenchmarkGammaRequest118(b *testing.B) {
	n := benchCase(b, "ieee118")
	lo, hi := n.DFACTSBounds()
	rng := rand.New(rand.NewSource(5))
	bodies := make([][]byte, 512) // twice the default memo capacity
	for i := range bodies {
		xd := make([]float64, len(lo))
		for j := range xd {
			xd[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
		}
		var err error
		if bodies[i], err = json.Marshal(planner.GammaRequest{Case: "ieee118", XNew: n.ExpandDFACTS(xd)}); err != nil {
			b.Fatal(err)
		}
	}
	p := planner.New(planner.Config{})
	serve := func(body []byte) {
		var req planner.GammaRequest
		if err := json.Unmarshal(body, &req); err != nil {
			b.Fatal(err)
		}
		resp, err := p.Gamma(req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Source != planner.SourceComputed {
			b.Fatalf("γ request served from %q, want a computation", resp.Source)
		}
	}
	for _, body := range bodies { // builds the case and its γ evaluator
		serve(body)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		serve(bodies[i%len(bodies)])
	}
}

// BenchmarkAttackEval118 measures one η'(δ) evaluation of a 200-attack set
// on the 118-bus system through the rank-|S| residual kernel (estimator
// re-checks only near the decision thresholds) — the per-selection
// attack-evaluation unit.
func BenchmarkAttackEval118(b *testing.B) {
	n := benchCase(b, "ieee118")
	xOld := n.Reactances()
	zOld, err := core.OperatingMeasurements(n, xOld)
	if err != nil {
		b.Fatal(err)
	}
	cfg := gridmtd.EffectivenessConfig{NumAttacks: 200, Seed: 7}
	set, err := gridmtd.SampleAttacks(n, xOld, zOld, cfg)
	if err != nil {
		b.Fatal(err)
	}
	lo, hi := n.DFACTSBounds()
	xd := make([]float64, len(lo))
	for i := range xd {
		xd[i] = 0.25*lo[i] + 0.75*hi[i]
	}
	xNew := n.ExpandDFACTS(xd)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gridmtd.EvaluateAttacks(n, set, xNew, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOperatingMeasurements118 measures the operating measurement
// vector z_old of an ieee118 selection. "engine" is the form a selection
// runs: the baseline OPF's own engine at its optimum, a solve-memo hit
// plus the verifying power flow. "fresh" is the (n, x) form, which builds
// a dispatch engine (and its seed LP) and solves the dispatch LP first.
func BenchmarkOperatingMeasurements118(b *testing.B) {
	n := benchCase(b, "ieee118")
	eng, err := opf.NewDispatchEngine(n)
	if err != nil {
		b.Fatal(err)
	}
	pre, err := opf.SolveDFACTSEngine(eng, opf.DFACTSConfig{Starts: 1, MaxEvals: 30, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := pre.Reactances
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.OperatingMeasurementsWith(eng, x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.OperatingMeasurements(n, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSampleAttacks300 measures drawing a 200-attack set on the
// 300-bus system: H(x_old), the sparse products a = H·c and the attack
// set's x_old γ evaluator.
func BenchmarkSampleAttacks300(b *testing.B) {
	n := benchCase(b, "ieee300")
	xOld := n.Reactances()
	zOld, err := core.OperatingMeasurements(n, xOld)
	if err != nil {
		b.Fatal(err)
	}
	cfg := gridmtd.EffectivenessConfig{NumAttacks: 200, Seed: 7}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gridmtd.SampleAttacks(n, xOld, zOld, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectMTDIEEE118Quick measures the quick-mode 118-bus selection
// (1 start, 30 evaluations) — the CI smoke's workload.
func BenchmarkSelectMTDIEEE118Quick(b *testing.B) {
	n := benchCase(b, "ieee118")
	x := n.Reactances()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := gridmtd.SelectMTD(n, x, gridmtd.MTDSelectConfig{
			GammaThreshold: 0.05, Starts: 1, MaxEvals: 30, Seed: 1, BaselineCost: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
