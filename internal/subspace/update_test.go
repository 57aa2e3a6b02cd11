package subspace

import (
	"math"
	"math/rand"
	"testing"

	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
)

// updateFixture prepares the update kernel for case name at x_old over
// its D-FACTS lines and returns it with the network.
func updateFixture(t *testing.T, name string, xOld []float64) (*grid.Network, *UpdateEvaluator) {
	t.Helper()
	n, err := grid.CaseByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if xOld == nil {
		xOld = n.Reactances()
	}
	u, err := NewUpdateEvaluator(n.GammaColumnFactor(), n.GammaIncidenceT(), invOf(xOld), n.DFACTSIndices())
	if err != nil {
		t.Fatal(err)
	}
	return n, u
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
		n, u := updateFixture(t, name, nil)
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
	n, u := updateFixture(t, "ieee57", nil)
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
// column of Ĉ lies in Col(H_old) so K = R_SᵀR_S has a zero column:
// the rank-revealing factorization must drop it. A bridge alone leaves the
// column space unchanged (γ = 0); with the D-FACTS lines it must agree
// with the reference.
func TestGammaUpdateBridge(t *testing.T) {
	n, u := updateFixture(t, "ieee57", nil)
	br := bridges(n)
	if len(br) == 0 {
		t.Fatal("ieee57 has no bridge")
	}
	l := br[0]
	// The premise: K's diagonal entry for the bridge, ‖(I − P)·ĉ_l‖², is
	// rounding noise against G_ll.
	var bs blockScratch
	nSS, wSS, kk := make([]float64, 1), make([]float64, 1), make([]float64, 1)
	u.blocks(&bs, []int{l}, nSS, wSS, kk)
	if gll := u.cn2[l]; kk[0] > 1e-12*gll {
		t.Fatalf("bridge %d: K_ll = %.3g, expected 0 (G_ll %.3g)", l, kk[0], gll)
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
	n, u := updateFixture(t, "ieee57", nil)
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

// TestGammaUpdateDeclines pins the ok=false exit that remains: a T whose
// inverse amplifies its rounding past updateMaxCond. A bridge set to zero
// admittance leaves H_new rank-deficient, so T = I + N_SS·Δ, whose
// determinant is that of H_old⁺·H_new, is singular; a bridge scaled to a
// millionth of its admittance leaves T nonsingular but ill-conditioned.
// T is 1×1 in both, where T's own condition number would be 1. A
// candidate that changes every branch, which no size cap declines any
// more, must be accepted and agree with the reference.
func TestGammaUpdateDeclines(t *testing.T) {
	n, u := updateFixture(t, "ieee57", nil)
	var ws UpdateWorkspace
	l := bridges(n)[0]
	for _, scale := range []float64{0, 1e-6} {
		d := invOf(n.Reactances())
		d[l] *= scale
		if g, ok := u.Gamma(&ws, d); ok {
			t.Errorf("bridge %d scaled by %g: kernel accepted γ %v", l, scale, g)
		}
		if _, ok := u.Residuals(&ws, d); ok {
			t.Errorf("bridge %d scaled by %g: residual kernel accepted", l, scale)
		}
	}
	x := n.Reactances()
	for i := range x {
		x[i] *= 1 + 0.2*float64(i%7)/7 + 0.01
	}
	checkUpdateAgrees(t, n, u, &ws, n.Reactances(), x, "every branch changed")
}

// TestGammaUpdateBlocksGatherBitwise pins the two routes to a changed
// set's blocks: for S ⊆ D, the blocks the block routine forms on the fly
// for S are bitwise the sub-blocks gathered from the ones formed over D
// at construction, because no column of a block solve mixes with another.
func TestGammaUpdateBlocksGatherBitwise(t *testing.T) {
	n, u := updateFixture(t, "ieee118", nil)
	d := n.DFACTSIndices()
	sub := []int{d[1], d[4], d[5], d[9]}
	s := len(sub)
	nSS, wSS, kk := make([]float64, s*s), make([]float64, s*s), make([]float64, s*s)
	var bs blockScratch
	u.blocks(&bs, sub, nSS, wSS, kk)
	for a, la := range sub {
		for b, lb := range sub {
			i := u.dPos[la]*u.nd + u.dPos[lb]
			for _, blk := range []struct {
				name       string
				got, whole []float64
			}{{"N", nSS, u.nD}, {"W", wSS, u.wD}, {"K", kk, u.kD}} {
				if math.Float64bits(blk.got[a*s+b]) != math.Float64bits(blk.whole[i]) {
					t.Errorf("%s(%d, %d): on the fly %v, gathered %v", blk.name, la, lb, blk.got[a*s+b], blk.whole[i])
				}
			}
		}
	}
}
