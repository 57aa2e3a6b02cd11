package mat

import "math"

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	// Scaled accumulation avoids overflow/underflow for extreme inputs.
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Norm1 returns the sum of absolute values of x.
func Norm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// SubVec returns x-y as a new slice.
func SubVec(x, y []float64) []float64 {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	out := make([]float64, len(x))
	for i := range x {
		out[i] = x[i] - y[i]
	}
	return out
}

// ScaleVec returns s*x as a new slice.
func ScaleVec(s float64, x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = s * v
	}
	return out
}

// AxpyVec adds alpha*x to y in place.
func AxpyVec(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(ErrShape)
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// CopyVec returns a copy of x.
func CopyVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Ones returns a vector of n ones.
func Ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// SumVec returns the sum of the elements of x.
func SumVec(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// VecEqual reports whether x and y have equal length and agree within tol
// elementwise.
func VecEqual(x, y []float64, tol float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Abs(x[i]-y[i]) > tol {
			return false
		}
	}
	return true
}
