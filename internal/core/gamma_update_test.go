package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"gridmtd/internal/grid"
)

// randomDFACTS draws count seeded D-FACTS settings uniformly from the
// device box.
func randomDFACTS(n *grid.Network, seed int64, count int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	lo, hi := n.DFACTSBounds()
	pts := make([][]float64, count)
	for i := range pts {
		xd := make([]float64, len(lo))
		for j := range xd {
			xd[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
		}
		pts[i] = xd
	}
	return pts
}

// servedByUpdate reports whether the evaluator's update kernel, not the
// Gram-Schmidt fallback, answers the exact γ of x.
func servedByUpdate(e *GammaEvaluator, x []float64) bool {
	if e.update == nil {
		return false
	}
	w := e.pool.Get().(*gammaWorkspace)
	defer e.pool.Put(w)
	_, ok := e.update.Gamma(&w.upd, invInto(w.d, x))
	return ok
}

// checkGammaAgrees compares got with the reference value want under the
// upper-tier contract: 1e-9 rad, or 1e-12 on the cosine scale when the
// reference is below 1e-6 (where acos amplifies sub-ulp noise).
func checkGammaAgrees(t *testing.T, label string, got, want float64) {
	t.Helper()
	if want < 1e-6 {
		if math.Abs(math.Cos(got)-math.Cos(want)) > 1e-12 {
			t.Errorf("%s: near-zero γ %.3g vs reference %.3g", label, got, want)
		}
		return
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("%s: γ %.15g vs reference %.15g (|Δ| = %.3g)", label, got, want, math.Abs(got-want))
	}
}

// TestGammaUpdateAgreesWithReference pins the exact path's update kernel
// to the uncached reference pipeline on the large cases: the backend test
// points plus 32 seeded random D-FACTS settings, every one of them served
// by the kernel. ieee300's reference takes about 0.65 s a point, so under
// the race detector, several times slower, it runs the first two test
// points and four random settings.
func TestGammaUpdateAgreesWithReference(t *testing.T) {
	cases := []string{"ieee57"}
	if !testing.Short() {
		cases = append(cases, "ieee118", "ieee300")
	}
	for _, name := range cases {
		n, err := grid.CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		xOld := n.Reactances()
		ev := NewGammaEvaluatorBackend(n, xOld, ExactGamma)
		pts, random := backendTestPoints(n), randomDFACTS(n, 1, 32)
		if name == "ieee300" && raceEnabled {
			pts, random = pts[:2], random[:4]
		}
		for i, xd := range append(pts, random...) {
			x := n.ExpandDFACTS(xd)
			if !servedByUpdate(ev, x) {
				t.Errorf("%s point %d: update kernel declined a D-FACTS setting", name, i)
			}
			checkGammaAgrees(t, name, ev.GammaDFACTSExact(xd), referenceGamma(n, xOld, x))
		}
	}
}

// TestGammaUpdateExplicitXOld covers an attacker-known configuration that
// is not nominal: x_old differs from the nominal reactances on 40 random
// branches, and the candidate differs from x_old on 40 others (s = 40,
// within the kernel's k/2 = 58 on ieee118).
func TestGammaUpdateExplicitXOld(t *testing.T) {
	if testing.Short() {
		t.Skip("ieee118 reference pipeline in -short mode")
	}
	n, err := grid.CaseByName("ieee118")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	xOld := n.Reactances()
	perm := rng.Perm(n.L())
	for _, l := range perm[:40] {
		xOld[l] *= 0.7 + 0.6*rng.Float64()
	}
	ev := NewGammaEvaluatorBackend(n, xOld, ExactGamma)
	for trial := 0; trial < 4; trial++ {
		x := append([]float64(nil), xOld...)
		for _, l := range rng.Perm(n.L())[:40] {
			x[l] *= 0.8 + 0.4*rng.Float64()
		}
		if !servedByUpdate(ev, x) {
			t.Errorf("trial %d: update kernel declined 40 changed branches", trial)
		}
		checkGammaAgrees(t, "explicit x_old", ev.GammaExact(x), referenceGamma(n, xOld, x))
	}
}

// TestGammaUpdateForcedFallback pins the decline path: a candidate that
// changes every branch is more than the kernel takes, and the exact path
// must then return the Gram-Schmidt evaluation's bits.
func TestGammaUpdateForcedFallback(t *testing.T) {
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	xOld := n.Reactances()
	ev := NewGammaEvaluatorBackend(n, xOld, ExactGamma)
	x := append([]float64(nil), xOld...)
	for l := range x {
		x[l] *= 1 + 0.2*float64(l%7)/7 + 0.01
	}
	if servedByUpdate(ev, x) {
		t.Fatal("update kernel accepted a candidate that changes every branch")
	}
	w := ev.pool.New().(*gammaWorkspace)
	want := ev.gramSchmidtGamma(w, x)
	if got := ev.GammaExact(x); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("fallback γ %v, Gram-Schmidt %v (not bitwise)", got, want)
	}
	checkGammaAgrees(t, "fallback", want, referenceGamma(n, xOld, x))
}

// TestGammaUpdateZeroAllocs pins the steady state of the search's exact
// evaluation on ieee118: no allocation per GammaDFACTSExact.
func TestGammaUpdateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop workspaces at random")
	}
	n, err := grid.CaseByName("ieee118")
	if err != nil {
		t.Fatal(err)
	}
	ev := NewGammaEvaluatorBackend(n, n.Reactances(), ExactGamma)
	xd := randomDFACTS(n, 3, 1)[0]
	ev.GammaDFACTSExact(xd)
	if allocs := testing.AllocsPerRun(50, func() { ev.GammaDFACTSExact(xd) }); allocs != 0 {
		t.Fatalf("GammaDFACTSExact allocates %v times per call", allocs)
	}
}

// TestGammaUpdateConcurrent shares one ieee118 evaluator across 16
// goroutines (run with -race): each evaluates every setting and must get
// the serial bits.
func TestGammaUpdateConcurrent(t *testing.T) {
	const workers = 16
	n, err := grid.CaseByName("ieee118")
	if err != nil {
		t.Fatal(err)
	}
	ev := NewGammaEvaluatorBackend(n, n.Reactances(), ExactGamma)
	pts := randomDFACTS(n, 5, 8)
	want := make([]float64, len(pts))
	for i, xd := range pts {
		want[i] = ev.GammaDFACTSExact(xd)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range pts {
				i := (g + k) % len(pts)
				if got := ev.GammaDFACTSExact(pts[i]); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("goroutine %d point %d: γ %v, serial %v", g, i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
