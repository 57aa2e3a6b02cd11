package subspace

import (
	"math/rand"
	"testing"

	"gridmtd/internal/mat"
)

// TestExactBackendIsDefault: a zero-value workspace must orthonormalize
// with the bitwise serial kernels of ComputeBasisT, and the Fast toggle
// must select the multi-accumulator family of ComputeBasisTFast — the
// exact evaluator's two faces.
func TestExactBackendIsDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	at := mat.NewDense(5, 12)
	for i := 0; i < 5; i++ {
		for j := 0; j < 12; j++ {
			at.Set(i, j, rng.NormFloat64())
		}
	}
	for _, fast := range []bool{false, true} {
		want := ComputeBasisT(at, 0)
		if fast {
			want = ComputeBasisTFast(at, 0)
		}
		ws := Workspace{Fast: fast}
		got := ws.BasisT(at, 0)
		if got.Dim() != want.Dim() {
			t.Fatalf("fast=%v: workspace rank %d vs %d", fast, got.Dim(), want.Dim())
		}
		for i := 0; i < got.Dim(); i++ {
			for j, v := range got.vec(i) {
				if v != want.vec(i)[j] {
					t.Fatalf("fast=%v: vector %d entry %d: %v vs %v", fast, i, j, v, want.vec(i)[j])
				}
			}
		}
	}
}
