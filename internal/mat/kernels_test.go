package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

func TestDotFastAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 63, 117, 490} {
		x, y := randVec(rng, n), randVec(rng, n)
		got, want := DotFast(x, y), Dot(x, y)
		if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("n=%d: DotFast %.17g vs Dot %.17g", n, got, want)
		}
	}
}

func TestAxpyFastAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 3, 4, 9, 117} {
		x := randVec(rng, n)
		y1 := randVec(rng, n)
		y2 := append([]float64(nil), y1...)
		AxpyVec(0.37, x, y1)
		AxpyFast(0.37, x, y2)
		for i := range y1 {
			// Element results are identical expressions; require exactness.
			if y1[i] != y2[i] {
				t.Fatalf("n=%d: AxpyFast[%d] = %v, AxpyVec = %v", n, i, y2[i], y1[i])
			}
		}
	}
}
