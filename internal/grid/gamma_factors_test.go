package grid

import (
	"math"
	"testing"

	"gridmtd/internal/mat"
)

// cscDense materializes a sparse matrix as a dense one.
func cscDense(m *mat.CSC) *mat.Dense {
	out := mat.NewDense(m.Rows(), m.Cols())
	cp, ri, v := m.ColPtr(), m.RowIdx(), m.Values()
	for j := 0; j < m.Cols(); j++ {
		for p := cp[j]; p < cp[j+1]; p++ {
			out.Set(ri[p], j, v[p])
		}
	}
	return out
}

// TestGammaSketchOperandsIdentity verifies the structural factorization the
// rank-|S| γ kernel rests on: for any two reactance vectors, the sparse
// quadratic form Eᵀ·D₁·G·D₂·E must reproduce the Gram matrix of the
// reduced [p; √2·f] representation's columns — i.e. the same inner
// products the exact γ pipeline reduces over.
func TestGammaSketchOperandsIdentity(t *testing.T) {
	for _, name := range []string{"case4gs", "ieee14", "ieee57"} {
		n, err := CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		et, g := n.GammaSketchOperands()
		k, l := n.N()-1, n.L()
		if et.Rows() != k || et.Cols() != l || g.Rows() != l || g.Cols() != l {
			t.Fatalf("%s: operand shapes (%dx%d, %dx%d)", name, et.Rows(), et.Cols(), g.Rows(), g.Cols())
		}

		x1 := n.Reactances()
		x2 := n.Reactances()
		for i := range x2 {
			x2[i] *= 1 + 0.3*float64(i%5)/5
		}
		// Dense reference: rows of the reduced transposed builders are the
		// candidate columns.
		ht1 := mat.NewDense(k, n.GammaAmbient())
		ht2 := mat.NewDense(k, n.GammaAmbient())
		n.MeasurementMatrixTGammaInto(x1, ht1)
		n.MeasurementMatrixTGammaInto(x2, ht2)

		// Sparse route: M₁₂ = Eᵀ·D₁·G·D₂·E via dense intermediates (the
		// test exercises the operands, not the scatter).
		d1 := make([]float64, l)
		d2 := make([]float64, l)
		for i := 0; i < l; i++ {
			d1[i], d2[i] = 1/x1[i], 1/x2[i]
		}
		gd := cscDense(g)
		etd := cscDense(et)
		// M[r][c] = Σ_{l,m} E[l][r]·d1[l]·G[l][m]·d2[m]·E[m][c]
		for r := 0; r < k; r++ {
			for c := 0; c < k; c++ {
				var want float64
				want = mat.Dot(ht1.RowView(r), ht2.RowView(c))
				var got float64
				for li := 0; li < l; li++ {
					e1 := etd.At(r, li)
					if e1 == 0 {
						continue
					}
					for m := 0; m < l; m++ {
						gv := gd.At(li, m)
						if gv == 0 {
							continue
						}
						e2 := etd.At(c, m)
						if e2 == 0 {
							continue
						}
						got += e1 * d1[li] * gv * d2[m] * e2
					}
				}
				scale := math.Max(1, math.Abs(want))
				if math.Abs(got-want) > 1e-9*scale {
					t.Fatalf("%s: M[%d][%d] = %.12g via operands, %.12g via dense rows", name, r, c, got, want)
				}
			}
		}
	}
}

// TestGammaColumnFactor pins Ĉ: Ĉ·D(x)·E reproduces
// MeasurementMatrixTGammaInto's matrix bit for bit, and ĈᵀĈ is
// GammaSketchOperands' Gram kernel.
func TestGammaColumnFactor(t *testing.T) {
	for _, name := range []string{"case4gs", "ieee57"} {
		n, err := CaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := cscDense(n.GammaColumnFactor())
		et, g := n.GammaSketchOperands()
		e := cscDense(et)
		x := n.Reactances()
		ht := n.MeasurementMatrixTGammaInto(x, mat.NewDense(n.N()-1, n.GammaAmbient()))
		for col := 0; col < n.N()-1; col++ {
			for r := 0; r < n.GammaAmbient(); r++ {
				var v float64
				for l := 0; l < n.L(); l++ {
					if w := c.At(r, l) * e.At(col, l); w != 0 {
						v += w * (1 / x[l])
					}
				}
				if v != ht.At(col, r) {
					t.Fatalf("%s: (Ĉ·D·E)[%d,%d] = %v, reduced matrix %v", name, r, col, v, ht.At(col, r))
				}
			}
		}
		gd := cscDense(g)
		for a := 0; a < n.L(); a++ {
			for b := 0; b < n.L(); b++ {
				var v float64
				for r := 0; r < n.GammaAmbient(); r++ {
					v += c.At(r, a) * c.At(r, b)
				}
				if math.Abs(v-gd.At(a, b)) > 1e-15 {
					t.Fatalf("%s: (ĈᵀĈ)[%d,%d] = %v, G %v", name, a, b, v, gd.At(a, b))
				}
			}
		}
	}
}

// GammaSketchOperands returns Eᵀ (GammaIncidenceT) and the sparse Gram
// kernel G = ĈᵀĈ = AᵀA + 2I (L×L) of the factorization B(x) = Ĉ·D(x)·E
// that GammaColumnFactor describes, so B(x₁)ᵀB(x₂) = Eᵀ·D₁·G·D₂·E. The
// tests check the factorization against the dense matrices through it.
func (n *Network) GammaSketchOperands() (et, g *mat.CSC) {
	nl := n.L()
	et = n.GammaIncidenceT()

	// G = AᵀA + 2I: (AᵀA)_{lm} sums a_bl·a_bm over the buses both branches
	// touch (full incidence, slack included), and the 2I is the √2-scaled
	// flow block's contribution.
	inc := make([][]int, n.N())      // incident branches per bus
	sign := make([][]float64, n.N()) // ±1 orientation per incidence
	for l, br := range n.Branches {
		inc[br.From-1] = append(inc[br.From-1], l)
		sign[br.From-1] = append(sign[br.From-1], 1)
		inc[br.To-1] = append(inc[br.To-1], l)
		sign[br.To-1] = append(sign[br.To-1], -1)
	}
	var gis, gjs []int
	var gvs []float64
	for b := range inc {
		for i, li := range inc[b] {
			for j, lj := range inc[b] {
				gis, gjs = append(gis, li), append(gjs, lj)
				gvs = append(gvs, sign[b][i]*sign[b][j])
			}
		}
	}
	sqrt2sq := math.Sqrt2 * math.Sqrt2 // the flow rows carry √2 exactly as built
	for l := 0; l < nl; l++ {
		gis, gjs = append(gis, l), append(gjs, l)
		gvs = append(gvs, sqrt2sq)
	}
	g = mat.NewCSCFromTriplets(nl, nl, gis, gjs, gvs)
	return et, g
}

// GammaAmbient returns the row count of the reduced γ-equivalent
// measurement representation built by MeasurementMatrixTGammaInto: N + L.
func (n *Network) GammaAmbient() int { return n.N() + n.L() }

// MeasurementMatrixTGammaInto builds the transposed reduced γ-equivalent
// measurement matrix into the preallocated (N-1)×(N+L) buffer: the
// injection block of Hᵀ followed by the flow block scaled by √2. The full
// measurement matrix stacks the flow rows twice (z = [p; f; −f], the
// reverse-flow block being the exact negation of the forward one), so for
// any two columns ⟨h_a, h_b⟩ = ⟨p_a, p_b⟩ + 2⟨f_a, f_b⟩ — exactly the
// inner product of the reduced columns [p; √2·f]. Principal angles (and
// hence γ) depend on the column sets only through these inner products, so
// the reduced representation yields mathematically identical angles while
// cutting every Gram-Schmidt and cross-Gram reduction from N+2L to N+L
// rows. The √2 scaling rounds each flow entry once. The tests build it to
// check the factorization GammaColumnFactor describes against a dense
// matrix.
func (n *Network) MeasurementMatrixTGammaInto(x []float64, ht *mat.Dense) *mat.Dense {
	if len(x) != n.L() {
		panic("grid: reactance vector length mismatch")
	}
	nb, nl := n.N(), n.L()
	if ht.Rows() != nb-1 || ht.Cols() != nb+nl {
		panic("grid: reduced gamma measurement matrix buffer has wrong shape")
	}
	ht.Zero()
	for l, br := range n.Branches {
		y := 1 / x[l]
		ys := y * math.Sqrt2
		i, j := br.From-1, br.To-1
		ci, cj := n.reducedCol(i), n.reducedCol(j)
		if ci >= 0 {
			ht.Add(ci, i, y)
			ht.Add(ci, j, -y)
			ht.Set(ci, nb+l, ys)
		}
		if cj >= 0 {
			ht.Add(cj, j, y)
			ht.Add(cj, i, -y)
			ht.Set(cj, nb+l, -ys)
		}
	}
	return ht
}
