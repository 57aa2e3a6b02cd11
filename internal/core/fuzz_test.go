package core

import (
	"math/rand"
	"sync"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
	"gridmtd/internal/se"
)

// FuzzKernelResidualDecisions draws ieee57 D-FACTS settings (the lines in
// mask move to a seeded point of their device box, the rest stay nominal)
// and attack seeds, and requires every attack's decisions on the
// residual-kernel path — one per δ threshold plus the undetectability
// flag, after the path's estimator re-checks — to equal the ones the
// se.NewEstimator QR residuals give. Run it with
//
//	go test -fuzz FuzzKernelResidualDecisions -fuzztime 20s ./internal/core
func FuzzKernelResidualDecisions(f *testing.F) {
	f.Add(int64(1), uint16(0xfff), int64(7))
	var (
		once sync.Once
		n    *grid.Network
		zOld []float64
		err  error
	)
	f.Fuzz(func(t *testing.T, settingSeed int64, mask uint16, attackSeed int64) {
		once.Do(func() {
			if n, err = grid.CaseByName("ieee57"); err == nil {
				zOld, err = OperatingMeasurements(n, n.Reactances())
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		xOld := n.Reactances()
		cfg := EffectivenessConfig{NumAttacks: 50, Seed: attackSeed}.withDefaults()
		set, err := SampleAttacks(n, xOld, zOld, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(settingSeed))
		lo, hi := n.DFACTSBounds()
		x := n.Reactances()
		for i, l := range n.DFACTSIndices() {
			if mask&(1<<i) != 0 {
				x[l] = lo[i] + rng.Float64()*(hi[i]-lo[i])
			}
		}
		resid := set.gamma.residuals(x)
		if resid == nil {
			t.Skip("residual kernel declined the setting")
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
		undet, err := set.kernelResiduals(n, resid, thresh, ras, 1, func() (*se.Estimator, error) { return est, nil })
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
	})
}
