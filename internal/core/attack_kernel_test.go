package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
	"gridmtd/internal/metrics"
	"gridmtd/internal/opf"
	"gridmtd/internal/se"
)

// kernelAttackCfg is the effectiveness config the residual-kernel suite
// runs with: enough attacks to populate every η′ band, seeded, analytic.
func kernelAttackCfg() EffectivenessConfig {
	return EffectivenessConfig{NumAttacks: 200, Seed: 7}.withDefaults()
}

// kernelCandidates returns count seeded candidates against the nominal
// reactances, cycling through three shapes: every D-FACTS line drawn from
// its device box, a random subset of the D-FACTS lines drawn (the rest
// left nominal), and an explicit x_new that scales a few branches off the
// D-FACTS set by a factor in [0.5, 1.5).
func kernelCandidates(n *grid.Network, count int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	lo, hi := n.DFACTSBounds()
	dfacts := n.DFACTSIndices()
	isDFACTS := make(map[int]bool, len(dfacts))
	for _, l := range dfacts {
		isDFACTS[l] = true
	}
	out := make([][]float64, 0, count)
	for c := 0; c < count; c++ {
		x := n.Reactances()
		switch c % 3 {
		case 0:
			for i, l := range dfacts {
				x[l] = lo[i] + rng.Float64()*(hi[i]-lo[i])
			}
		case 1:
			for _, i := range rng.Perm(len(dfacts))[:1+rng.Intn(len(dfacts))] {
				x[dfacts[i]] = lo[i] + rng.Float64()*(hi[i]-lo[i])
			}
		default:
			for changed := 1 + rng.Intn(6); changed > 0; {
				if l := rng.Intn(n.L()); !isDFACTS[l] {
					x[l] *= 0.5 + rng.Float64()
					changed--
				}
			}
		}
		out = append(out, x)
	}
	return out
}

// TestSketchedAttackEvalAgreement is the residual-kernel contract: on
// fast attack sets the analytic path scores every attack from the rank-|S|
// kernel, and each kernel residual must agree with the estimator's QR
// residual (se.Estimator.ResidualWS) to 1e-9 relative, while the η′(δ)
// rows and the undetectable fraction EvaluateAttacks reports must equal
// the ones the QR residuals give, with no estimator built. 32 seeded
// candidates × 200 attacks per case; ieee118 and ieee300 only without
// -short.
func TestSketchedAttackEvalAgreement(t *testing.T) {
	cases := []string{"ieee57"}
	if !testing.Short() {
		cases = append(cases, "ieee118", "ieee300")
	}
	cfg := kernelAttackCfg()
	for _, name := range cases {
		n, err := grid.CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		xOld := n.Reactances()
		zOld, err := OperatingMeasurements(n, xOld)
		if err != nil {
			t.Fatalf("%s: operating point: %v", name, err)
		}
		set, err := SampleAttacks(n, xOld, zOld, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !set.fast || set.gamma.update == nil {
			t.Fatalf("%s: attack set has no residual kernel", name)
		}
		bdd, err := se.NewBDDForDOF(n.M()-(n.N()-1), cfg.Sigma, cfg.Alpha)
		if err != nil {
			t.Fatal(err)
		}
		thresh, err := residualThresholds(bdd, cfg.Deltas)
		if err != nil {
			t.Fatal(err)
		}
		var ws se.ResidualWorkspace
		for ci, xNew := range kernelCandidates(n, 32, 1) {
			resid := set.gamma.residuals(xNew)
			if resid == nil {
				t.Fatalf("%s candidate %d: residual kernel declined", name, ci)
			}
			est, err := se.NewEstimator(n.MeasurementMatrix(xNew))
			if err != nil {
				t.Fatal(err)
			}
			b := make([]float64, len(resid.Branches()))
			wantEta := make([]float64, len(thresh))
			wantUndet := 0
			for k := 0; k < set.Len(); k++ {
				a := set.Batch.A(k)
				want := est.ResidualWS(&ws, a)
				got := resid.Norm(n.BranchAngleDiffsInto(b, resid.Branches(), set.Batch.C(k)))
				cut := 1e-8 * mat.Norm2(a)
				if want > cut && math.Abs(got-want) > 1e-9*want {
					t.Errorf("%s candidate %d attack %d: kernel residual %.17g vs QR %.17g", name, ci, k, got, want)
				}
				if want <= cut {
					wantUndet++
				}
				for i, th := range thresh {
					if want >= th {
						wantEta[i]++
					}
				}
			}
			var res *EffectivenessResult
			d := estStatsDelta(func() {
				res, err = EvaluateAttacks(n, set, xNew, cfg)
			})
			if err != nil {
				t.Fatal(err)
			}
			if d.Misses != 0 {
				t.Errorf("%s candidate %d: kernel path built %d estimators", name, ci, d.Misses)
			}
			for i := range wantEta {
				if want := wantEta[i] / float64(set.Len()); res.Eta[i] != want {
					t.Errorf("%s candidate %d: η′(%.2f) %v, QR path %v", name, ci, cfg.Deltas[i], res.Eta[i], want)
				}
			}
			if want := float64(wantUndet) / float64(set.Len()); res.UndetectableFraction != want {
				t.Errorf("%s candidate %d: undetectable fraction %v, QR path %v", name, ci, res.UndetectableFraction, want)
			}
		}
	}
}

// estStatsDelta returns the estimator counter increments fn causes.
func estStatsDelta(fn func()) EstimatorCacheStats {
	before := GlobalEstimatorCacheStats()
	fn()
	return metrics.Delta(GlobalEstimatorCacheStats(), before)
}

// TestEvaluateAttacksWithEstimatorCache pins that EffectivenessConfig's
// Estimators field is accepted and ignored: on a fast (sparse-backend)
// set under ReportProbs, which takes the estimator rather than the
// residual kernel, evaluations with a cache return the bits of one
// without, and each builds exactly one estimator (one miss, one full QR,
// no hits or fast builds), repeats included.
func TestEvaluateAttacksWithEstimatorCache(t *testing.T) {
	n, err := grid.CaseByName("ieee118")
	if err != nil {
		t.Fatal(err)
	}
	xOld := n.Reactances()
	zOld, err := OperatingMeasurements(n, xOld)
	if err != nil {
		t.Fatal(err)
	}
	cfg := EffectivenessConfig{NumAttacks: 100, Seed: 5, ReportProbs: true}
	set, err := SampleAttacks(n, xOld, zOld, cfg)
	if err != nil || !set.fast {
		t.Fatalf("ieee118 attack set: fast=%v, error %v", set != nil && set.fast, err)
	}
	cached := cfg
	cached.Estimators = NewEstimatorCache(n, 0)
	for pi, xd := range backendTestPoints(n) {
		xNew := n.ExpandDFACTS(xd)
		var want *EffectivenessResult
		for run, c := range []EffectivenessConfig{cfg, cached, cached} {
			var got *EffectivenessResult
			d := estStatsDelta(func() { got, err = EvaluateAttacks(n, set, xNew, c) })
			if err != nil {
				t.Fatalf("point %d run %d: %v", pi, run, err)
			}
			if d != (EstimatorCacheStats{Misses: 1, FullQRs: 1}) {
				t.Errorf("point %d run %d: estimator counters %+v, want one miss and one full QR", pi, run, d)
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("point %d run %d: result with a cache %+v, without %+v", pi, run, got, want)
			}
		}
	}
}

// TestSketchedAttackEvalExactPathsUntouched pins the gate: ReportProbs
// evaluations on a fast set take the estimator, not the residual kernel,
// so their per-attack probabilities are the historical path's bit for bit
// (here: an estimator-built reference on the same residuals).
func TestSketchedAttackEvalExactPathsUntouched(t *testing.T) {
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	xOld := n.Reactances()
	zOld, err := OperatingMeasurements(n, xOld)
	if err != nil {
		t.Fatal(err)
	}
	cfg := kernelAttackCfg()
	cfg.NumAttacks = 50
	cfg.ReportProbs = true
	set, err := SampleAttacks(n, xOld, zOld, cfg)
	if err != nil {
		t.Fatal(err)
	}
	xNew := n.ExpandDFACTS(backendTestPoints(n)[2])
	res, err := EvaluateAttacks(n, set, xNew, cfg)
	if err != nil {
		t.Fatal(err)
	}
	est, err := se.NewEstimator(n.MeasurementMatrix(xNew))
	if err != nil {
		t.Fatal(err)
	}
	bdd, err := se.NewBDD(est, cfg.Sigma, cfg.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	for k := range res.DetectionProbs {
		want, err := est.DetectionProbability(bdd, set.Batch.A(k))
		if err != nil {
			t.Fatal(err)
		}
		if res.DetectionProbs[k] != want {
			t.Fatalf("attack %d: ReportProbs probability %v, estimator %v", k, res.DetectionProbs[k], want)
		}
	}
}

// TestCarriedWarmStartDeterminism pins the warm-start discipline end to
// end: a full problem-(4) selection on ieee57, whose sparse path carries
// a warm LP basis per worker, must return the identical design for 1 and
// 4 workers and across repeated runs.
func TestCarriedWarmStartDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("57-bus selections take seconds")
	}
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	xOld := n.Reactances()
	de, err := opf.NewDispatchEngine(n)
	if err != nil {
		t.Fatal(err)
	}
	var ref *Selection
	for run := 0; run < 2; run++ {
		for _, par := range []int{1, 4} {
			withProcs(t, par)
			sel, err := SelectMTDWith(NewEnginesShared(NewGammaEvaluator(n, xOld), de), n, xOld, SelectConfig{
				GammaThreshold: 0.05,
				Starts:         2,
				MaxEvals:       30,
				Seed:           5,
				BaselineCost:   1,
			})
			if err != nil {
				t.Fatalf("run %d parallelism %d: %v", run, par, err)
			}
			if ref == nil {
				ref = sel
				continue
			}
			if sel.Gamma != ref.Gamma {
				t.Fatalf("run %d parallelism %d: γ %v != reference %v", run, par, sel.Gamma, ref.Gamma)
			}
			for i := range ref.Reactances {
				if sel.Reactances[i] != ref.Reactances[i] {
					t.Fatalf("run %d parallelism %d: reactance %d differs: %v vs %v",
						run, par, i, sel.Reactances[i], ref.Reactances[i])
				}
			}
		}
	}
}
