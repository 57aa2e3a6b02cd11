package core

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/opf"
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
		ev := NewGammaEvaluator(n, xOld)
		pts, random := backendTestPoints(n), randomDFACTS(n, 1, 32)
		if name == "ieee300" && raceEnabled {
			pts, random = pts[:2], random[:4]
		}
		for i, xd := range append(pts, random...) {
			x := n.ExpandDFACTS(xd)
			if !servedByUpdate(ev, x) {
				t.Errorf("%s point %d: update kernel declined a D-FACTS setting", name, i)
			}
			checkGammaAgrees(t, name, ev.GammaDFACTS(xd), referenceGamma(n, xOld, x))
		}
	}
}

// TestGammaUpdateExplicitXOld covers attacker-known configurations that
// are not a D-FACTS setting of the case. First, on ieee118, x_old differs
// from the nominal reactances on 40 random branches, and the candidate
// differs from x_old on 40 others, so S lies outside the block set.
// Second, on ieee57, ieee118 and ieee300, x_old scales N/2+1 lines off
// the D-FACTS set by 1.1, and the candidates are D-FACTS settings of the
// case: each changes more than k/2 branches, all of them inside D ∪ F, so
// the kernel gathers its blocks. Every candidate must be served by the
// kernel and agree with the reference. Under the race detector ieee300
// runs one point.
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
	ev := NewGammaEvaluator(n, xOld)
	for trial := 0; trial < 4; trial++ {
		x := append([]float64(nil), xOld...)
		for _, l := range rng.Perm(n.L())[:40] {
			x[l] *= 0.8 + 0.4*rng.Float64()
		}
		if !servedByUpdate(ev, x) {
			t.Errorf("trial %d: update kernel declined 40 changed branches", trial)
		}
		checkGammaAgrees(t, "explicit x_old", ev.Gamma(x), referenceGamma(n, xOld, x))
	}

	for _, name := range []string{"ieee57", "ieee118", "ieee300"} {
		n, err := grid.CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		xOld := offDFACTSXOld(n)
		ev := NewGammaEvaluator(n, xOld)
		pts := randomDFACTS(n, 11, 3)
		if name == "ieee300" && raceEnabled {
			pts = pts[:1]
		}
		for i, xd := range pts {
			x := n.ExpandDFACTS(xd)
			if !servedByUpdate(ev, x) {
				t.Errorf("%s point %d: update kernel declined a D-FACTS setting against x_old off the D-FACTS set", name, i)
			}
			checkGammaAgrees(t, name+" x_old off D", ev.GammaDFACTS(xd), referenceGamma(n, xOld, x))
		}
	}
}

// offDFACTSXOld returns the case's reactances scaled by 1.1 on its first
// N/2+1 lines off the D-FACTS set: an attacker-known configuration that
// every D-FACTS setting of the case differs from on more than k/2 lines.
func offDFACTSXOld(n *grid.Network) []float64 {
	x := n.Reactances()
	for l, changed := 0, 0; changed < n.N()/2+1; l++ {
		if !n.Branches[l].HasDFACTS {
			x[l] *= 1.1
			changed++
		}
	}
	return x
}

// TestGammaBlockSet pins the evaluator's block set: exactly D, in D's
// order, for an x_old from a problem-(1) solve, and D followed by the
// changed lines off D for an explicit one.
func TestGammaBlockSet(t *testing.T) {
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	res, err := opf.SolveDFACTS(n, opf.DFACTSConfig{Starts: 1, Seed: 3, MaxEvals: 40})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := blockSet(n, res.Reactances), n.DFACTSIndices(); !reflect.DeepEqual(got, want) {
		t.Errorf("problem-(1) x_old: block set %v, want D = %v", got, want)
	}
	xOld := offDFACTSXOld(n)
	want := n.DFACTSIndices()
	for l, br := range n.Branches {
		if xOld[l] != br.X {
			want = append(want, l)
		}
	}
	if got := blockSet(n, xOld); !reflect.DeepEqual(got, want) || len(got) != len(n.DFACTSIndices())+n.N()/2+1 {
		t.Errorf("explicit x_old: block set %v, want %v", got, want)
	}
}

// bridgeLine returns the first line whose removal disconnects the
// network: a bridge, whose column of Ĉ lies in Col(B_old).
func bridgeLine(t *testing.T, n *grid.Network) int {
	t.Helper()
	for skip := range n.Branches {
		adj := make([][]int, n.N())
		for l, br := range n.Branches {
			if l != skip {
				adj[br.From-1] = append(adj[br.From-1], br.To-1)
				adj[br.To-1] = append(adj[br.To-1], br.From-1)
			}
		}
		seen := make([]bool, n.N())
		stack, reached := []int{0}, 1
		seen[0] = true
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, c := range adj[b] {
				if !seen[c] {
					seen[c] = true
					reached++
					stack = append(stack, c)
				}
			}
		}
		if reached < n.N() {
			return skip
		}
	}
	t.Fatalf("%s has no bridge", n.Name)
	return -1
}

// TestGammaUpdateForcedFallback pins the decline path: a bridge whose
// reactance grows a millionfold leaves H(x′) nearly rank-deficient, so
// T = I + N_SS·Δ is ill-conditioned and the kernel declines, and the exact
// path must then return the Gram-Schmidt evaluation's bits.
func TestGammaUpdateForcedFallback(t *testing.T) {
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	xOld := n.Reactances()
	ev := NewGammaEvaluator(n, xOld)
	x := n.ExpandDFACTS(randomDFACTS(n, 2, 1)[0])
	x[bridgeLine(t, n)] *= 1e6
	if servedByUpdate(ev, x) {
		t.Fatal("update kernel accepted an ill-conditioned T")
	}
	w := ev.pool.New().(*gammaWorkspace)
	want := ev.gramSchmidtGamma(w, x)
	if got := ev.Gamma(x); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("fallback γ %v, Gram-Schmidt %v (not bitwise)", got, want)
	}
	checkGammaAgrees(t, "fallback", want, referenceGamma(n, xOld, x))
}

// TestGammaUpdateZeroAllocs pins the steady state of the search's exact
// evaluation on ieee118: no allocation per GammaDFACTS.
func TestGammaUpdateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop workspaces at random")
	}
	n, err := grid.CaseByName("ieee118")
	if err != nil {
		t.Fatal(err)
	}
	ev := NewGammaEvaluator(n, n.Reactances())
	xd := randomDFACTS(n, 3, 1)[0]
	ev.GammaDFACTS(xd)
	if allocs := testing.AllocsPerRun(50, func() { ev.GammaDFACTS(xd) }); allocs != 0 {
		t.Fatalf("GammaDFACTS allocates %v times per call", allocs)
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
	ev := NewGammaEvaluator(n, n.Reactances())
	pts := randomDFACTS(n, 5, 8)
	want := make([]float64, len(pts))
	for i, xd := range pts {
		want[i] = ev.GammaDFACTS(xd)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range pts {
				i := (g + k) % len(pts)
				if got := ev.GammaDFACTS(pts[i]); math.Float64bits(got) != math.Float64bits(want[i]) {
					t.Errorf("goroutine %d point %d: γ %v, serial %v", g, i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
