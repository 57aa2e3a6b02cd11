package grid

import (
	"math"
	"testing"

	"gridmtd/internal/mat"
)

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
		gd := g.Dense()
		etd := et.Dense()
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
		c := n.GammaColumnFactor().Dense()
		et, g := n.GammaSketchOperands()
		e := et.Dense()
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
		gd := g.Dense()
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
