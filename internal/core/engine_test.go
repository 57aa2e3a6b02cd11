package core

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/subspace"
)

// randomReactances draws a random full reactance vector with the D-FACTS
// branches uniform inside their device boxes.
func randomReactances(rng *rand.Rand, n *grid.Network) []float64 {
	x := n.Reactances()
	for _, i := range n.DFACTSIndices() {
		br := n.Branches[i]
		x[i] = br.XMin + rng.Float64()*(br.XMax-br.XMin)
	}
	return x
}

// TestGammaEvaluatorMatchesUncached is the cached-vs-uncached equivalence
// check: the engine must reproduce subspace.Gamma on random reactance
// pairs to 1e-12 (in practice the two paths perform identical
// floating-point operations and agree bitwise).
func TestGammaEvaluatorMatchesUncached(t *testing.T) {
	n := grid.CaseIEEE14()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		xOld := randomReactances(rng, n)
		ev := NewGammaEvaluator(n, xOld)
		for cand := 0; cand < 5; cand++ {
			xNew := randomReactances(rng, n)
			want := subspace.Gamma(n.MeasurementMatrix(xOld), n.MeasurementMatrix(xNew))
			got := ev.Gamma(xNew)
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("trial %d cand %d: engine γ = %v, uncached γ = %v (diff %g)",
					trial, cand, got, want, got-want)
			}
			gotD := ev.GammaDFACTS(n.DFACTSSetting(xNew))
			if gotD != got {
				t.Fatalf("GammaDFACTS = %v differs from Gamma = %v", gotD, got)
			}
		}
	}
}

// TestGammaEvaluatorConcurrent hammers one evaluator from many goroutines
// and checks every result against the serial value: the pooled workspaces
// must not bleed state across concurrent evaluations.
func TestGammaEvaluatorConcurrent(t *testing.T) {
	n := grid.CaseIEEE14()
	rng := rand.New(rand.NewSource(12))
	xOld := randomReactances(rng, n)
	ev := NewGammaEvaluator(n, xOld)

	const numCands = 24
	cands := make([][]float64, numCands)
	want := make([]float64, numCands)
	for i := range cands {
		cands[i] = randomReactances(rng, n)
		want[i] = ev.Gamma(cands[i])
	}

	var wg sync.WaitGroup
	errs := make([]int, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				for i := range cands {
					if ev.Gamma(cands[i]) != want[i] {
						errs[w]++
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, cnt := range errs {
		if cnt > 0 {
			t.Fatalf("worker %d saw %d mismatching concurrent γ values", w, cnt)
		}
	}
}

// withProcs sets GOMAXPROCS, and with it the worker count of every
// fan-out, for the rest of the test.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestSelectMTDParallelismInvariant verifies the headline determinism
// contract: the identical Selection comes back at any GOMAXPROCS.
func TestSelectMTDParallelismInvariant(t *testing.T) {
	n, xt, _, cost := setup14(t)
	var results []*Selection
	for _, par := range []int{1, 4} {
		withProcs(t, par)
		sel, err := SelectMTD(n, xt, SelectConfig{
			GammaThreshold: 0.2,
			Starts:         3,
			Seed:           21,
			BaselineCost:   cost,
		})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		results = append(results, sel)
	}
	a, b := results[0], results[1]
	for i := range a.Reactances {
		if a.Reactances[i] != b.Reactances[i] {
			t.Fatalf("reactance %d differs across parallelism: %v vs %v", i, a.Reactances[i], b.Reactances[i])
		}
	}
	if a.Gamma != b.Gamma || a.OPF.CostPerHour != b.OPF.CostPerHour || a.CostIncrease != b.CostIncrease {
		t.Fatalf("selection metrics differ across parallelism: %+v vs %+v", a, b)
	}
}

// TestMaxGammaParallelismInvariant checks the corner enumeration and the
// multi-start reduction stay deterministic under parallel fan-out.
func TestMaxGammaParallelismInvariant(t *testing.T) {
	n, xt, _, cost := setup14(t)
	var sels []*Selection
	for _, par := range []int{1, 3, 8} {
		withProcs(t, par)
		sel, err := MaxGamma(n, xt, MaxGammaConfig{Starts: 2, Seed: 5, BaselineCost: cost})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		sels = append(sels, sel)
	}
	for _, sel := range sels[1:] {
		if sel.Gamma != sels[0].Gamma {
			t.Fatalf("max γ differs across parallelism: %v vs %v", sels[0].Gamma, sel.Gamma)
		}
		for i := range sels[0].Reactances {
			if sels[0].Reactances[i] != sel.Reactances[i] {
				t.Fatalf("reactance %d differs across parallelism", i)
			}
		}
	}
}

// TestEvaluateAttacksParallelismInvariant checks the per-attack η′ loop
// on both of its paths — the estimator on ieee14 with per-attack
// probabilities, the rank-|S| residual kernel on ieee57 — where every
// reported number must be identical at any worker count.
func TestEvaluateAttacksParallelismInvariant(t *testing.T) {
	n14, xt, zt, _ := setup14(t)
	n57, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	z57, err := OperatingMeasurements(n57, n57.Reactances())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		n      *grid.Network
		xOld   []float64
		zOld   []float64
		report bool
	}{
		{n14, xt, zt, true},
		{n57, n57.Reactances(), z57, false},
	} {
		n := tc.n
		cfg := EffectivenessConfig{NumAttacks: 200, Seed: 9, ReportProbs: tc.report}
		set, err := SampleAttacks(n, tc.xOld, tc.zOld, cfg)
		if err != nil {
			t.Fatal(err)
		}
		xNew := n.ExpandDFACTS(mustMaxCorner(t, n))
		var results []*EffectivenessResult
		for _, par := range []int{1, 4, 7} {
			withProcs(t, par)
			eff, err := EvaluateAttacks(n, set, xNew, cfg)
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", n.Name, par, err)
			}
			results = append(results, eff)
		}
		base := results[0]
		for ri, r := range results[1:] {
			if r.Gamma != base.Gamma || r.UndetectableFraction != base.UndetectableFraction {
				t.Fatalf("%s result %d: γ/undetectable differ across parallelism", n.Name, ri+1)
			}
			for i := range base.Eta {
				if r.Eta[i] != base.Eta[i] {
					t.Fatalf("%s result %d: η'[%d] differs: %v vs %v", n.Name, ri+1, i, r.Eta[i], base.Eta[i])
				}
			}
			for i := range base.DetectionProbs {
				if r.DetectionProbs[i] != base.DetectionProbs[i] {
					t.Fatalf("%s result %d: prob[%d] differs", n.Name, ri+1, i)
				}
			}
		}
	}
}

// mustMaxCorner returns the all-XMax D-FACTS setting.
func mustMaxCorner(t *testing.T, n *grid.Network) []float64 {
	t.Helper()
	_, hi := n.DFACTSBounds()
	return hi
}

// TestRandomPerturbationDoesNotMutateNetwork is the regression test for
// the aliasing hazard: RandomPerturbation clips the returned vector in
// place, which must never touch the network's stored reactances (it
// operates on the copy Reactances() returns).
func TestRandomPerturbationDoesNotMutateNetwork(t *testing.T) {
	n := grid.CaseIEEE14()
	before := n.Reactances()
	rng := rand.New(rand.NewSource(3))
	x, err := RandomPerturbation(rng, n, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	after := n.Reactances()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("branch %d reactance mutated by RandomPerturbation: %v -> %v", i, before[i], after[i])
		}
		if before[i] != n.Branches[i].X {
			t.Fatalf("branch %d stored X inconsistent", i)
		}
	}
	// The returned vector must be a distinct allocation: writing through it
	// must not reach the network either.
	for i := range x {
		x[i] = -1
	}
	for i := range before {
		if n.Branches[i].X != before[i] {
			t.Fatalf("branch %d mutated through returned slice", i)
		}
	}
}

// TestAttackSetAccessors covers the packed batch surface.
func TestAttackSetAccessors(t *testing.T) {
	n, xt, zt, _ := setup14(t)
	set, err := SampleAttacks(n, xt, zt, EffectivenessConfig{NumAttacks: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 10 {
		t.Fatalf("Len = %d, want 10", set.Len())
	}
	if a, c := set.Batch.A(3), set.Batch.C(3); len(a) != n.M() || len(c) != n.N()-1 {
		t.Fatalf("attack dims %d/%d, want %d/%d", len(a), len(c), n.M(), n.N()-1)
	}
}

// TestGammaBasisBuiltOnlyOnFallback pins when an evaluator builds its
// x_old Gram-Schmidt basis: never while the update kernel answers, for a
// nominal or an explicit x_old, once when it declines a candidate
// (however many it declines), and once on the bitwise tier.
func TestGammaBasisBuiltOnlyOnFallback(t *testing.T) {
	n, err := grid.CaseByName("ieee118")
	if err != nil {
		t.Fatal(err)
	}
	before := GammaBasisBuilds()
	ev := NewGammaEvaluator(n, n.Reactances())
	for _, xd := range randomDFACTS(n, 9, 4) {
		ev.GammaDFACTS(xd)
	}
	if b := GammaBasisBuilds() - before; b != 0 {
		t.Fatalf("kernel-served D-FACTS candidates built %d bases, want 0", b)
	}
	explicit := NewGammaEvaluator(n, offDFACTSXOld(n))
	for _, xd := range randomDFACTS(n, 9, 2) {
		explicit.GammaDFACTS(xd)
	}
	if b := GammaBasisBuilds() - before; b != 0 {
		t.Fatalf("kernel-served candidates against an explicit x_old built %d bases, want 0", b)
	}
	declined := n.ExpandDFACTS(randomDFACTS(n, 9, 1)[0])
	declined[bridgeLine(t, n)] *= 1e6
	ev.Gamma(declined)
	declined[n.DFACTSIndices()[0]] *= 1.01
	ev.Gamma(declined)
	if b := GammaBasisBuilds() - before; b != 1 {
		t.Fatalf("two declined candidates built %d bases, want 1", b)
	}

	small, err := grid.CaseByName("ieee14")
	if err != nil {
		t.Fatal(err)
	}
	before = GammaBasisBuilds()
	dense := NewGammaEvaluator(small, small.Reactances())
	if b := GammaBasisBuilds() - before; b != 0 {
		t.Fatalf("bitwise-tier evaluator built %d bases before its first evaluation", b)
	}
	x := small.Reactances()
	x[small.DFACTSIndices()[0]] *= 1.1
	dense.Gamma(x)
	dense.Gamma(x)
	if b := GammaBasisBuilds() - before; b != 1 {
		t.Fatalf("bitwise tier built %d bases over two evaluations, want 1", b)
	}
}
