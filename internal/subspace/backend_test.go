package subspace

import (
	"math/rand"
	"testing"

	"gridmtd/internal/mat"
)

// TestExactBackendIsDefault: a zero-value workspace must orthonormalize
// with the bitwise serial kernels of ComputeBasisT, the one Gram-Schmidt
// the exact evaluator runs.
func TestExactBackendIsDefault(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	at := mat.NewDense(5, 12)
	for i := 0; i < 5; i++ {
		for j := 0; j < 12; j++ {
			at.Set(i, j, rng.NormFloat64())
		}
	}
	want := ComputeBasisT(at, 0)
	var ws Workspace
	got := ws.BasisT(at, 0)
	if got.Dim() != want.Dim() {
		t.Fatalf("workspace rank %d vs %d", got.Dim(), want.Dim())
	}
	for i := 0; i < got.Dim(); i++ {
		for j, v := range got.vec(i) {
			if v != want.vec(i)[j] {
				t.Fatalf("vector %d entry %d: %v vs %v", i, j, v, want.vec(i)[j])
			}
		}
	}
}
