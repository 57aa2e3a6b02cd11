package impact

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gridmtd/internal/core"
	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
	"gridmtd/internal/opf"
)

func TestZeroAttackNoImpact(t *testing.T) {
	n := grid.CaseIEEE14()
	x := n.Reactances()
	res, err := evaluate(n, x, make([]float64, n.N()-1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OverloadedLines) != 0 {
		t.Errorf("zero attack overloaded lines %v", res.OverloadedLines)
	}
	if res.ShedMW > 1e-6 {
		t.Errorf("zero attack shed %v MW", res.ShedMW)
	}
	// The corrective problem around the honest dispatch must recover the
	// baseline cost (within ramp slack the optimum is unchanged).
	if math.Abs(res.CostIncrease) > 1e-6 {
		t.Errorf("zero attack cost increase %v", res.CostIncrease)
	}
}

func TestEvaluateRejectsBadLength(t *testing.T) {
	n := grid.CaseIEEE14()
	if _, err := evaluate(n, n.Reactances(), []float64{1}); err == nil {
		t.Fatal("expected length error")
	}
}

func TestFalseLoadsBalanced(t *testing.T) {
	// The estimated load redistribution B·c preserves total demand (the
	// columns of B sum to zero); the realized false loads can deviate only
	// by the mass clamped at zero-load buses.
	n := grid.CaseIEEE14()
	x := n.Reactances()
	rng := rand.New(rand.NewSource(1))
	c := make([]float64, n.N()-1)
	for i := range c {
		c[i] = rng.NormFloat64() * 3e-4
	}
	// Raw redistribution balances exactly.
	b := n.BMatrix(x)
	deltaP := mat.MulVec(b, n.ExpandVec(c, 0))
	if s := mat.SumVec(deltaP); math.Abs(s) > 1e-9 {
		t.Fatalf("B·c sums to %v, want 0", s)
	}
	res, err := evaluate(n, x, c)
	if err != nil {
		t.Fatal(err)
	}
	// Clamp accounting: total false load = total true load + clamped mass.
	var clamped float64
	for i, bus := range n.Buses {
		raw := bus.LoadMW - deltaP[i]*n.BaseMVA
		if raw < 0 {
			clamped += -raw
		}
	}
	diff := mat.SumVec(res.FalseLoadsMW) - n.TotalLoadMW()
	if math.Abs(diff-clamped) > 1e-6 {
		t.Errorf("false-load imbalance %v does not match clamped mass %v", diff, clamped)
	}
}

func TestWorstCaseFindsDamage(t *testing.T) {
	// On the congested evening-peak system, some stealthy attack within
	// the paper's 8% budget must cause real damage (overloads and a
	// positive realized-cost increase) — the quantity the MTD insures
	// against.
	n := grid.CaseIEEE14()
	// Stress the system so the bus-1 export limit binds irreducibly.
	factor := 250.0 / n.TotalLoadMW()
	n.ScaleLoads(factor)
	pre, err := opf.SolveDFACTS(n, opf.DFACTSConfig{Starts: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	z, err := core.OperatingMeasurements(n, pre.Reactances)
	if err != nil {
		t.Fatal(err)
	}
	res, err := WorstCase(n, pre.Reactances, z, Config{Candidates: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.CostIncrease <= 0 {
		t.Errorf("worst-case attack cost increase %v, want > 0", res.CostIncrease)
	}
	if res.CostIncrease > 2 {
		t.Errorf("cost increase %v implausibly large", res.CostIncrease)
	}
	t.Logf("worst-case: +%.1f%% cost, %d overloads, %.1f MW shed",
		100*res.CostIncrease, len(res.OverloadedLines), res.ShedMW)
}

func TestWorstCaseValidation(t *testing.T) {
	n := grid.CaseIEEE14()
	if _, err := WorstCase(n, n.Reactances(), []float64{1}, Config{}); err == nil {
		t.Error("expected error for wrong-length z")
	}
	z := make([]float64, n.M())
	if _, err := WorstCase(n, n.Reactances(), z, Config{Candidates: 3}); err == nil {
		t.Error("expected error for zero measurement vector")
	}
}

// Property: the realized corrective cost is never below the true optimum —
// an attack can only make operation more expensive.
func TestQuickRealizedCostAtLeastBaseline(t *testing.T) {
	n := grid.CaseIEEE14()
	n.ScaleLoads(0.8)
	x := n.Reactances()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := make([]float64, n.N()-1)
		for i := range c {
			c[i] = rng.NormFloat64() * 0.01
		}
		res, err := evaluate(n, x, c)
		if err != nil {
			return false
		}
		return res.RealizedCost >= res.BaselineCost-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
