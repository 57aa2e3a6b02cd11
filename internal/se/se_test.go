package se

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
)

func estimator14(t *testing.T) *Estimator {
	t.Helper()
	n := grid.CaseIEEE14()
	e, err := NewEstimator(n.MeasurementMatrix(n.Reactances()))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEstimateRecoversState(t *testing.T) {
	e := estimator14(t)
	rng := rand.New(rand.NewSource(1))
	theta := make([]float64, e.NumStates())
	for i := range theta {
		theta[i] = rng.NormFloat64() * 0.1
	}
	// Noiseless measurements lie in Col(H): the fit Hθ̂ = z − r is z itself.
	z := mat.MulVec(e.h, theta)
	if r := e.Residual(z); r > 1e-9 {
		t.Errorf("noiseless residual = %v, want ~0", r)
	}
}

func TestEstimateWithNoiseIsClose(t *testing.T) {
	e := estimator14(t)
	rng := rand.New(rand.NewSource(2))
	theta := make([]float64, e.NumStates())
	for i := range theta {
		theta[i] = rng.NormFloat64() * 0.1
	}
	truth := mat.MulVec(e.h, theta)
	z := mat.CopyVec(truth)
	sigma := 0.01
	for i := range z {
		z[i] += rng.NormFloat64() * sigma
	}
	// The fit Hθ̂ = z − r keeps only the noise inside Col(H), so it lies
	// closer to the true measurements than z does.
	fit := mat.SubVec(z, e.ResidualVector(z))
	if fitErr, noise := mat.Norm2(mat.SubVec(fit, truth)), mat.Norm2(mat.SubVec(z, truth)); fitErr >= noise {
		t.Fatalf("fit error %v not below noise %v", fitErr, noise)
	}
}

func TestNewEstimatorRejectsRankDeficient(t *testing.T) {
	// Two identical columns: unobservable.
	h := mat.NewDense(4, 2)
	for i := 0; i < 4; i++ {
		h.Set(i, 0, float64(i+1))
		h.Set(i, 1, float64(i+1))
	}
	if _, err := NewEstimator(h); err == nil {
		t.Fatal("expected rank-deficiency error")
	}
}

func TestNewEstimatorRejectsWide(t *testing.T) {
	if _, err := NewEstimator(mat.NewDense(2, 5)); err == nil {
		t.Fatal("expected error for more states than measurements")
	}
}

func TestDims(t *testing.T) {
	e := estimator14(t)
	if e.NumMeasurements() != 54 || e.NumStates() != 13 || e.DOF() != 41 {
		t.Fatalf("dims M=%d n=%d dof=%d, want 54/13/41",
			e.NumMeasurements(), e.NumStates(), e.DOF())
	}
}

func TestBDDFalsePositiveRate(t *testing.T) {
	e := estimator14(t)
	sigma := 0.01
	alpha := 0.05 // use a large alpha so MC converges quickly
	b, err := NewBDD(e, sigma, alpha)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const trials = 20000
	fp := 0
	z := make([]float64, e.NumMeasurements())
	for i := 0; i < trials; i++ {
		for j := range z {
			z[j] = rng.NormFloat64() * sigma
		}
		if b.Detect(e.Residual(z)) {
			fp++
		}
	}
	rate := float64(fp) / trials
	if math.Abs(rate-alpha) > 0.01 {
		t.Errorf("observed FP rate %v, want ~%v", rate, alpha)
	}
}

func TestBDDValidation(t *testing.T) {
	e := estimator14(t)
	if _, err := NewBDD(e, 0, 0.05); err == nil {
		t.Error("expected error for sigma=0")
	}
	if _, err := NewBDD(e, 0.01, 0); err == nil {
		t.Error("expected error for alpha=0")
	}
	// Square H has no residual DOF.
	hSquare := mat.Identity(3)
	eSquare, err := NewEstimator(hSquare)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBDD(eSquare, 0.01, 0.05); err == nil {
		t.Error("expected error for zero DOF")
	}
}

func TestStealthyAttackBypassesBDD(t *testing.T) {
	// The core FDI result: a = Hc has zero residual component and detection
	// probability equal to the false-positive rate.
	e := estimator14(t)
	b, err := NewBDD(e, 0.01, 5e-4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	c := make([]float64, e.NumStates())
	for i := range c {
		c[i] = rng.NormFloat64()
	}
	a := mat.MulVec(e.h, c)
	if rc := e.ResidualComponent(a); rc > 1e-9*mat.Norm2(a) {
		t.Fatalf("residual component %v for in-column-space attack", rc)
	}
	if !e.IsStealthy(a, 0) {
		t.Error("IsStealthy = false for a = Hc")
	}
	pd, err := e.DetectionProbability(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pd-b.Alpha) > 1e-6 {
		t.Errorf("P_D = %v for stealthy attack, want alpha = %v", pd, b.Alpha)
	}
}

func TestRandomAttackIsDetected(t *testing.T) {
	// A random (non-structured) attack of decent size is detected with
	// near certainty.
	e := estimator14(t)
	b, err := NewBDD(e, 0.01, 5e-4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	a := make([]float64, e.NumMeasurements())
	for i := range a {
		a[i] = rng.NormFloat64() * 0.5
	}
	if e.IsStealthy(a, 0) {
		t.Fatal("random attack should not be stealthy")
	}
	pd, err := e.DetectionProbability(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if pd < 0.999 {
		t.Errorf("P_D = %v for large random attack, want ~1", pd)
	}
}

func TestAnalyticMatchesMonteCarlo(t *testing.T) {
	// The analytic noncentral-χ² detection probability must agree with
	// Monte Carlo across the interesting operating range.
	e := estimator14(t)
	sigma := 0.01
	b, err := NewBDD(e, sigma, 5e-4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for _, scale := range []float64{0.002, 0.01, 0.03, 0.1} {
		a := make([]float64, e.NumMeasurements())
		for i := range a {
			a[i] = rng.NormFloat64() * scale
		}
		analytic, err := e.DetectionProbability(b, a)
		if err != nil {
			t.Fatal(err)
		}
		mc := e.DetectionProbabilityMC(b, a, 4000, rng)
		if math.Abs(analytic-mc) > 0.03 {
			t.Errorf("scale %v: analytic %v vs MC %v", scale, analytic, mc)
		}
	}
}

func TestIsStealthyZeroAttack(t *testing.T) {
	e := estimator14(t)
	if !e.IsStealthy(make([]float64, e.NumMeasurements()), 0) {
		t.Error("zero attack must be stealthy")
	}
}

func TestDetectionProbabilityMCZeroTrials(t *testing.T) {
	e := estimator14(t)
	b, _ := NewBDD(e, 0.01, 0.05)
	if got := e.DetectionProbabilityMC(b, make([]float64, e.NumMeasurements()), 0, rand.New(rand.NewSource(1))); got != 0 {
		t.Errorf("MC with zero trials = %v, want 0", got)
	}
}

// Property: detection probability is monotone in the attack magnitude for a
// fixed attack direction.
func TestQuickDetectionMonotoneInMagnitude(t *testing.T) {
	e := estimator14(t)
	b, err := NewBDD(e, 0.01, 5e-4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		dir := make([]float64, e.NumMeasurements())
		for i := range dir {
			dir[i] = rng.NormFloat64() * 0.01
		}
		s1 := rng.Float64() * 2
		s2 := s1 + rng.Float64()*2
		p1, err1 := e.DetectionProbability(b, mat.ScaleVec(s1, dir))
		p2, err2 := e.DetectionProbability(b, mat.ScaleVec(s2, dir))
		if err1 != nil || err2 != nil {
			return false
		}
		return p2 >= p1-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the estimator fits noiseless data exactly for any state.
func TestQuickEstimateExactRecovery(t *testing.T) {
	e := estimator14(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		theta := make([]float64, e.NumStates())
		for i := range theta {
			theta[i] = rng.NormFloat64()
		}
		z := mat.MulVec(e.h, theta)
		return e.Residual(z) <= 1e-8*mat.Norm2(z)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestResidualWSMatchesResidual: the workspace residual must agree bitwise
// with the allocating path, including across reuse.
func TestResidualWSMatchesResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	h := mat.NewDense(30, 8)
	for i := 0; i < 30; i++ {
		for j := 0; j < 8; j++ {
			h.Set(i, j, rng.NormFloat64())
		}
	}
	est, err := NewEstimator(h)
	if err != nil {
		t.Fatal(err)
	}
	var ws ResidualWorkspace
	for trial := 0; trial < 25; trial++ {
		z := make([]float64, 30)
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		want := est.Residual(z)
		got := est.ResidualWS(&ws, z)
		if got != want {
			t.Fatalf("trial %d: ResidualWS = %v, Residual = %v", trial, got, want)
		}
	}
}
