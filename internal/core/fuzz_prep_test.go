package core

import (
	"math/rand"
	"sync"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
	"gridmtd/internal/se"
)

// FuzzGammaKernelPrep draws an ieee57 x_old, a candidate and an attack
// seed. With nf = 0, x_old is a global scale times a per-line factor on a
// seeded third of the lines, so F (the lines off the D-FACTS set D where
// x_old differs from the case) is every line off D; otherwise it is the
// case's reactances scaled on nf%64 seeded lines off D, which are then F.
// The candidate starts from x_old, or, when fromCase is set, from the
// case's reactances as every ExpandDFACTS candidate does, so that it
// changes all of F. It then moves the D-FACTS lines in mask to seeded
// points of their device box and offD%64 further lines off D (lines
// outside D ∪ F make the kernel form its blocks on the fly). Whenever the
// kernel prepared from the blocked sparse solves accepts the candidate,
// its γ must agree with the Gram-Schmidt reference within 1e-9, and every
// attack's residual decisions must equal the se.NewEstimator QR's. Run it
// with
//
//	go test -fuzz FuzzGammaKernelPrep -fuzztime 20s ./internal/core
func FuzzGammaKernelPrep(f *testing.F) {
	f.Add(int64(1), uint16(0xfff), uint8(0), int64(7), uint8(0), false)
	var (
		once sync.Once
		n    *grid.Network
		err  error
	)
	f.Fuzz(func(t *testing.T, xOldSeed int64, mask uint16, offD uint8, attackSeed int64, nf uint8, fromCase bool) {
		once.Do(func() { n, err = grid.CaseByName("ieee57") })
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(xOldSeed))
		inD := make(map[int]bool)
		for _, l := range n.DFACTSIndices() {
			inD[l] = true
		}
		var off []int // the lines off D
		for l := range n.Branches {
			if !inD[l] {
				off = append(off, l)
			}
		}
		xOld := n.Reactances()
		if nf%64 == 0 {
			scale := 0.8 + 0.4*rng.Float64()
			for l := range xOld {
				xOld[l] *= scale
				if rng.Intn(3) == 0 {
					xOld[l] *= 0.7 + 0.6*rng.Float64()
				}
			}
		} else {
			for _, i := range rng.Perm(len(off))[:min(int(nf%64), len(off))] {
				xOld[off[i]] *= 0.7 + 0.6*rng.Float64()
			}
		}
		x := append([]float64(nil), xOld...)
		if fromCase {
			x = n.Reactances()
		}
		lo, hi := n.DFACTSBounds()
		for i, l := range n.DFACTSIndices() {
			if mask&(1<<i) != 0 {
				x[l] = lo[i] + rng.Float64()*(hi[i]-lo[i])
			}
		}
		for moved := 0; moved < int(offD%64); {
			if l := rng.Intn(n.L()); !inD[l] {
				x[l] *= 0.8 + 0.4*rng.Float64()
				moved++
			}
		}

		ev := NewGammaEvaluator(n, xOld)
		if ev.update == nil {
			t.Skip("H(x_old) failed the kernel's rank test")
		}
		w := ev.pool.New().(*gammaWorkspace)
		got, ok := ev.update.Gamma(&w.upd, invInto(w.d, x))
		if !ok {
			t.Skip("kernel declined the candidate")
		}
		checkGammaAgrees(t, "kernel vs Gram-Schmidt", got, ev.gramSchmidtGamma(w, x))

		zOld, err := OperatingMeasurements(n, xOld)
		if err != nil {
			t.Skip("no operating point at this x_old")
		}
		cfg := EffectivenessConfig{NumAttacks: 50, Seed: attackSeed}.withDefaults()
		set, err := SampleAttacks(n, xOld, zOld, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkResidualDecisions(t, n, set, x, cfg)
	})
}

// checkResidualDecisions requires every attack's decisions on the
// residual-kernel path at candidate x — one per δ threshold plus the
// undetectability flag, after the path's estimator re-checks — to equal
// the ones the se.NewEstimator QR residuals give.
func checkResidualDecisions(t *testing.T, n *grid.Network, set *AttackSet, x []float64, cfg EffectivenessConfig) {
	t.Helper()
	resid := set.gamma.residuals(x)
	if resid == nil {
		t.Fatal("residual kernel declined a candidate the γ kernel accepted")
	}
	est, err := se.NewEstimator(n.MeasurementMatrix(x))
	if err != nil {
		t.Fatal(err)
	}
	bdd, err := se.NewBDD(est, cfg.Sigma, cfg.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	thresh, err := residualThresholds(bdd, cfg.Deltas)
	if err != nil {
		t.Fatal(err)
	}
	ras := make([]float64, set.Len())
	undet, err := set.kernelResiduals(n, resid, thresh, ras, func() (*se.Estimator, error) { return est, nil })
	if err != nil {
		t.Fatal(err)
	}
	var ws se.ResidualWorkspace
	wantUndet := 0
	for k := range ras {
		a := set.Batch.A(k)
		want := est.ResidualWS(&ws, a)
		cut := 1e-8 * mat.Norm2(a)
		if (ras[k] <= cut) != (want <= cut) {
			t.Errorf("attack %d: kernel residual %.17g and QR %.17g straddle the undetectability cutoff %.17g", k, ras[k], want, cut)
		}
		if want <= cut {
			wantUndet++
		}
		for i, th := range thresh {
			if (ras[k] >= th) != (want >= th) {
				t.Errorf("attack %d: kernel residual %.17g and QR %.17g straddle the δ=%.2f threshold %.17g", k, ras[k], want, cfg.Deltas[i], th)
			}
		}
	}
	if undet != wantUndet {
		t.Errorf("kernel path counts %d undetectable attacks, QR path %d", undet, wantUndet)
	}
}
