package subspace

import (
	"math"
	"math/rand"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
)

// updateFixture prepares the update kernel for case name at x_old and
// returns it with the network and the fast Gram-Schmidt x_old basis the
// kernel was built from.
func updateFixture(t *testing.T, name string, xOld []float64) (*grid.Network, *UpdateEvaluator, *Basis) {
	t.Helper()
	n, err := grid.CaseByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if xOld == nil {
		xOld = n.Reactances()
	}
	ht := n.MeasurementMatrixTGammaInto(xOld, mat.NewDense(n.N()-1, n.GammaAmbient()))
	qOld := ComputeBasisTFast(ht, 0)
	if qOld.Dim() != n.N()-1 {
		t.Fatalf("%s: x_old basis has rank %d, want %d", name, qOld.Dim(), n.N()-1)
	}
	u, err := NewUpdateEvaluator(n.GammaColumnFactor(), invOf(xOld), qOld)
	if err != nil {
		t.Fatal(err)
	}
	return n, u, qOld
}

func invOf(x []float64) []float64 {
	d := make([]float64, len(x))
	for i, v := range x {
		d[i] = 1 / v
	}
	return d
}

// checkUpdateAgrees evaluates x through the kernel, requires it to accept,
// and compares with the uncached reference on the full measurement
// matrices: γ within 1e-9 rad, or 1e-12 on the cosine scale when
// γ < 1e-6, and the residuals checkResidualsAgree compares.
func checkUpdateAgrees(t *testing.T, n *grid.Network, u *UpdateEvaluator, ws *UpdateWorkspace, xOld, x []float64, label string) {
	t.Helper()
	checkResidualsAgree(t, n, u, ws, xOld, x, label)
	got, ok := u.Gamma(ws, invOf(x))
	if !ok {
		t.Fatalf("%s: update kernel declined", label)
	}
	want := Gamma(n.MeasurementMatrix(xOld), n.MeasurementMatrix(x))
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

// checkResidualsAgree scores four seeded directions c through the
// kernel's residual operator and compares ‖P·E_S·c‖ with the component of
// H_old·c orthogonal to Col(H_new), projected out through an orthonormal
// basis of the full H_new: within 1e-9 relative, plus 1e-12·‖H_old·c‖ for
// residuals at rounding level (a changed bridge alone leaves them all 0).
func checkResidualsAgree(t *testing.T, n *grid.Network, u *UpdateEvaluator, ws *UpdateWorkspace, xOld, x []float64, label string) {
	t.Helper()
	m, ok := u.Residuals(ws, invOf(x))
	if !ok {
		t.Fatalf("%s: residual kernel declined", label)
	}
	hOld := n.MeasurementMatrix(xOld)
	qNew := ComputeBasis(n.MeasurementMatrix(x), 0)
	rng := rand.New(rand.NewSource(1))
	c := make([]float64, hOld.Cols())
	b := make([]float64, len(m.Branches()))
	for trial := 0; trial < 4; trial++ {
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		a := mat.MulVec(hOld, c)
		r := append([]float64(nil), a...)
		for i := 0; i < qNew.Dim(); i++ {
			mat.AxpyVec(-mat.Dot(qNew.vec(i), a), qNew.vec(i), r)
		}
		want := mat.Norm2(r)
		got := m.Norm(n.BranchAngleDiffsInto(b, m.Branches(), c))
		if math.Abs(got-want) > 1e-9*want+1e-12*mat.Norm2(a) {
			t.Errorf("%s direction %d: residual %.17g vs reference %.17g", label, trial, got, want)
		}
	}
}

// TestGammaUpdateMatchesReference pins the kernel to the reference
// principal-angle pipeline on seeded random D-FACTS settings.
func TestGammaUpdateMatchesReference(t *testing.T) {
	cases := []string{"ieee57"}
	if !testing.Short() {
		cases = append(cases, "ieee118")
	}
	for _, name := range cases {
		n, u, _ := updateFixture(t, name, nil)
		xOld := n.Reactances()
		rng := rand.New(rand.NewSource(1))
		lo, hi := n.DFACTSBounds()
		var ws UpdateWorkspace
		for i := 0; i < 16; i++ {
			xd := make([]float64, len(lo))
			for j := range xd {
				xd[j] = lo[j] + rng.Float64()*(hi[j]-lo[j])
			}
			checkUpdateAgrees(t, n, u, &ws, xOld, n.ExpandDFACTS(xd), name)
		}
	}
}

// TestGammaUpdateNoChange pins s = 0: the old configuration itself has
// γ = 0 exactly.
func TestGammaUpdateNoChange(t *testing.T) {
	n, u, _ := updateFixture(t, "ieee57", nil)
	var ws UpdateWorkspace
	if g, ok := u.Gamma(&ws, invOf(n.Reactances())); !ok || g != 0 {
		t.Fatalf("unchanged candidate: γ %v, ok %v; want 0, true", g, ok)
	}
}

// bridges returns the branches whose removal disconnects the network.
func bridges(n *grid.Network) []int {
	var out []int
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
			out = append(out, skip)
		}
	}
	return out
}

// TestGammaUpdateBridge covers a changed set containing a bridge, whose
// column of Ĉ lies in Col(H_old) so K = G_SS − U_SᵀU_S has a zero column:
// the rank-revealing factorization must drop it. A bridge alone leaves the
// column space unchanged (γ = 0); with the D-FACTS lines it must agree
// with the reference.
func TestGammaUpdateBridge(t *testing.T) {
	n, u, qOld := updateFixture(t, "ieee57", nil)
	br := bridges(n)
	if len(br) == 0 {
		t.Fatal("ieee57 has no bridge")
	}
	l := br[0]
	// The premise: K's diagonal entry for the bridge, ‖(I − P)·ĉ_l‖², is
	// rounding noise against G_ll.
	var uu float64
	for _, v := range u.row(u.ut, l) {
		uu += v * v
	}
	if gll := u.g.Values()[u.g.Pos(l, l)]; math.Abs(gll-uu) > 1e-12*gll {
		t.Fatalf("bridge %d: K_ll = %.3g, expected 0 (G_ll %.3g); basis dim %d", l, gll-uu, gll, qOld.Dim())
	}
	xOld := n.Reactances()
	var ws UpdateWorkspace
	x := append([]float64(nil), xOld...)
	x[l] *= 1.3
	if got, ok := u.Gamma(&ws, invOf(x)); !ok || math.Cos(got) < 1-1e-12 {
		t.Errorf("bridge alone: γ %v, ok %v; want ≈ 0, true", got, ok)
	}
	checkUpdateAgrees(t, n, u, &ws, xOld, x, "bridge alone")

	lo, hi := n.DFACTSBounds()
	xd := make([]float64, len(lo))
	for i := range xd {
		xd[i] = 0.3*lo[i] + 0.7*hi[i]
	}
	x = n.ExpandDFACTS(xd)
	x[l] *= 0.8
	checkUpdateAgrees(t, n, u, &ws, xOld, x, "bridge + D-FACTS")
}

// cycleThrough returns the branches of a cycle closed by branch l: l plus
// a shortest path between its ends that avoids it (nil for a bridge).
func cycleThrough(n *grid.Network, l int) []int {
	type hop struct{ bus, via int }
	adj := make([][]hop, n.N())
	for m, br := range n.Branches {
		if m != l {
			adj[br.From-1] = append(adj[br.From-1], hop{br.To - 1, m})
			adj[br.To-1] = append(adj[br.To-1], hop{br.From - 1, m})
		}
	}
	src, dst := n.Branches[l].From-1, n.Branches[l].To-1
	prev := make([]hop, n.N())
	for i := range prev {
		prev[i] = hop{-1, -1}
	}
	prev[src] = hop{src, -1}
	queue := []int{src}
	for len(queue) > 0 && prev[dst].bus < 0 {
		b := queue[0]
		queue = queue[1:]
		for _, h := range adj[b] {
			if prev[h.bus].bus < 0 {
				prev[h.bus] = hop{b, h.via}
				queue = append(queue, h.bus)
			}
		}
	}
	if prev[dst].bus < 0 {
		return nil
	}
	cyc := []int{l}
	for b := dst; b != src; b = prev[b].bus {
		cyc = append(cyc, prev[b].via)
	}
	return cyc
}

// TestGammaUpdateCycle covers a changed set that closes a cycle: the
// incidence rows E_S are linearly dependent, so Z·Zᵀ is singular. The
// kernel factors only K and must still agree with the reference.
func TestGammaUpdateCycle(t *testing.T) {
	n, u, _ := updateFixture(t, "ieee57", nil)
	xOld := n.Reactances()
	var ws UpdateWorkspace
	found := 0
	for l := range n.Branches {
		cyc := cycleThrough(n, l)
		if len(cyc) < 3 || len(cyc) > 8 {
			continue
		}
		x := append([]float64(nil), xOld...)
		for i, m := range cyc {
			x[m] *= 1 + 0.1*float64(i+1)
		}
		checkUpdateAgrees(t, n, u, &ws, xOld, x, "cycle")
		if found++; found == 3 {
			return
		}
	}
	t.Fatalf("found only %d short cycles on ieee57", found)
}

// TestGammaUpdateDeclines pins the two ok=false exits: more changed
// branches than the kernel takes, and a singular T (a bridge set to zero
// admittance leaves H_new rank-deficient, so R + U_S·Δ·E_S = Qᵀ·H_new is
// singular; T is 1×1 here, where T's own condition number would be 1).
func TestGammaUpdateDeclines(t *testing.T) {
	n, u, _ := updateFixture(t, "ieee57", nil)
	var ws UpdateWorkspace
	d := invOf(n.Reactances())
	for i := range d {
		d[i] *= 1.01
	}
	if _, ok := u.Gamma(&ws, d); ok {
		t.Errorf("every branch changed (s = %d > %d): kernel accepted", len(d), u.maxRank)
	}
	if _, ok := u.Residuals(&ws, d); ok {
		t.Errorf("every branch changed (s = %d > %d): residual kernel accepted", len(d), u.maxRank)
	}
	l := bridges(n)[0]
	d = invOf(n.Reactances())
	d[l] = 0
	if g, ok := u.Gamma(&ws, d); ok {
		t.Errorf("bridge %d removed: kernel accepted γ %v", l, g)
	}
	if _, ok := u.Residuals(&ws, d); ok {
		t.Errorf("bridge %d removed: residual kernel accepted", l)
	}
}
