package dcflow

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
)

// TestCase4GSPaperFlows verifies the solver against the paper's Table II:
// dispatch (350, 150) MW on case4gs gives flows
// (126.56, 173.44, -43.44, -26.56) MW.
func TestCase4GSPaperFlows(t *testing.T) {
	n := grid.Case4GS()
	res, err := Solve(n, n.Reactances(), n.InjectionsMW([]float64{350, 150}))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{126.56, 173.44, -43.44, -26.56}
	for l := range want {
		if math.Abs(res.FlowsMW[l]-want[l]) > 0.05 {
			t.Errorf("branch %d flow = %.2f MW, want %.2f (Table II)", l+1, res.FlowsMW[l], want[l])
		}
	}
	if res.ThetaRad[n.SlackBus-1] != 0 {
		t.Error("slack angle must be zero")
	}
}

func TestFlowConservation(t *testing.T) {
	// Net flow into each bus must equal its net injection.
	n := grid.CaseIEEE14()
	dispatch := []float64{220, 10, 9, 10, 10} // sums to 259 = total load
	res, err := Solve(n, n.Reactances(), n.InjectionsMW(dispatch))
	if err != nil {
		t.Fatal(err)
	}
	inj := n.InjectionsMW(dispatch)
	netFlow := make([]float64, n.N())
	for l, br := range n.Branches {
		netFlow[br.From-1] += res.FlowsMW[l]
		netFlow[br.To-1] -= res.FlowsMW[l]
	}
	for i := range inj {
		if math.Abs(netFlow[i]-inj[i]) > 1e-6 {
			t.Errorf("bus %d: outflow %v != injection %v", i+1, netFlow[i], inj[i])
		}
	}
}

func TestUnbalancedRejected(t *testing.T) {
	n := grid.Case4GS()
	_, err := Solve(n, n.Reactances(), []float64{100, 0, 0, 0})
	if !errors.Is(err, ErrUnbalanced) {
		t.Fatalf("err = %v, want ErrUnbalanced", err)
	}
}

func TestDimensionErrors(t *testing.T) {
	n := grid.Case4GS()
	if _, err := Solve(n, n.Reactances(), []float64{1, -1}); err == nil {
		t.Error("expected injection length error")
	}
	if _, err := Solve(n, []float64{0.1}, []float64{1, -1, 0, 0}); err == nil {
		t.Error("expected reactance length error")
	}
}

func TestViolations(t *testing.T) {
	n := grid.Case4GS() // limits 127.5, 173.7, 250, 250
	flows := []float64{130, 100, -260, 0}
	got := Violations(n, flows, 0)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Violations = %v, want [0 2]", got)
	}
	if v := Violations(n, []float64{0, 0, 0, 0}, 0); v != nil {
		t.Fatalf("Violations on zero flows = %v", v)
	}
}

func TestMeasurementsLayout(t *testing.T) {
	n := grid.Case4GS()
	inj := n.InjectionsMW([]float64{350, 150})
	res, err := Solve(n, n.Reactances(), inj)
	if err != nil {
		t.Fatal(err)
	}
	z := Measurements(n, inj, res)
	if len(z) != n.M() {
		t.Fatalf("len(z) = %d, want %d", len(z), n.M())
	}
	// z must equal H·θ_reduced (the SE model equation).
	h := n.MeasurementMatrix(n.Reactances())
	theta := n.ReduceVec(res.ThetaRad)
	hTheta := mat.MulVec(h, theta)
	if !mat.VecEqual(z, hTheta, 1e-9) {
		t.Error("z != H·θ: measurement builder inconsistent with H")
	}
}

// Property: scaling all reactances by a common factor leaves DC flows
// unchanged (only angles scale).
func TestQuickFlowScaleInvariance(t *testing.T) {
	n := grid.CaseIEEE14()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		scale := 0.5 + rng.Float64()*1.5
		dispatch := []float64{220, 10, 9, 10, 10}
		r1, err1 := Solve(n, n.Reactances(), n.InjectionsMW(dispatch))
		r2, err2 := Solve(n, mat.ScaleVec(scale, n.Reactances()), n.InjectionsMW(dispatch))
		if err1 != nil || err2 != nil {
			return false
		}
		return mat.VecEqual(r1.FlowsMW, r2.FlowsMW, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: superposition — flows are linear in injections.
func TestQuickSuperposition(t *testing.T) {
	n := grid.Case4GS()
	x := n.Reactances()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() []float64 {
			p := make([]float64, n.N())
			var sum float64
			for i := 0; i < n.N()-1; i++ {
				p[i] = rng.NormFloat64() * 50
				sum += p[i]
			}
			p[n.N()-1] = -sum
			return p
		}
		p1, p2 := mk(), mk()
		r1, err1 := Solve(n, x, p1)
		r2, err2 := Solve(n, x, p2)
		p12 := mat.CopyVec(p1)
		mat.AxpyVec(1, p2, p12)
		r12, err3 := Solve(n, x, p12)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		return mat.VecEqual(mat.SubVec(r12.FlowsMW, r1.FlowsMW), r2.FlowsMW, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
