package stat

import (
	"errors"
	"fmt"
	"math"
)

// ChiSquareSF returns the survival function P(X > x) for a chi-square random
// variable with k degrees of freedom.
func ChiSquareSF(k, x float64) (float64, error) {
	if k <= 0 {
		return 0, ErrDomain
	}
	if x <= 0 {
		return 1, nil
	}
	return GammaIncUpper(k/2, x/2)
}

// ChiSquareQuantileUpper returns the threshold x such that a chi-square
// random variable with k degrees of freedom exceeds x with probability
// alpha, i.e. SF(x) = alpha. It is used to set the BDD threshold for a
// target false-positive rate.
func ChiSquareQuantileUpper(k, alpha float64) (float64, error) {
	if k <= 0 || alpha <= 0 || alpha >= 1 {
		return 0, ErrDomain
	}
	// Bracket the root: SF is decreasing in x, SF(0) = 1.
	lo, hi := 0.0, k+10
	for i := 0; ; i++ {
		sf, err := ChiSquareSF(k, hi)
		if err != nil {
			return 0, err
		}
		if sf < alpha {
			break
		}
		hi *= 2
		if i > 200 {
			return 0, fmt.Errorf("stat: cannot bracket chi-square quantile (k=%g, alpha=%g)", k, alpha)
		}
	}
	// Bisection: robust and plenty fast for the sizes used here.
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		sf, err := ChiSquareSF(k, mid)
		if err != nil {
			return 0, err
		}
		if sf > alpha {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+hi) {
			break
		}
	}
	return (lo + hi) / 2, nil
}

// NoncentralChiSquareSF returns P(X > x) for a noncentral chi-square random
// variable with k degrees of freedom and noncentrality parameter lambda.
// It evaluates the Poisson mixture
//
//	SF(x) = Σ_j e^{-λ/2} (λ/2)^j / j! · SF_central(k+2j, x)
//
// truncating when the remaining Poisson mass bounds the error below 1e-12.
func NoncentralChiSquareSF(k, lambda, x float64) (float64, error) {
	if k <= 0 || lambda < 0 {
		return 0, ErrDomain
	}
	if x <= 0 {
		return 1, nil
	}
	if lambda == 0 {
		return ChiSquareSF(k, x)
	}
	half := lambda / 2
	// Start at the modal Poisson term for numerical efficiency and sum
	// outwards in both directions.
	j0 := int(half)
	logW0 := -half + float64(j0)*math.Log(half) - lgammaInt(j0+1)
	w0 := math.Exp(logW0)

	sum := 0.0

	// Upward pass from j0.
	w := w0
	for j := j0; ; j++ {
		sf, err := ChiSquareSF(k+2*float64(j), x)
		if err != nil {
			return 0, err
		}
		sum += w * sf
		wNext := w * half / float64(j+1)
		if wNext < 1e-16 && float64(j) > half {
			break
		}
		w = wNext
		if j > 100000 {
			break
		}
	}
	// Downward pass from j0-1.
	w = w0
	for j := j0 - 1; j >= 0; j-- {
		w = w * float64(j+1) / half
		sf, err := ChiSquareSF(k+2*float64(j), x)
		if err != nil {
			return 0, err
		}
		sum += w * sf
		if w < 1e-16 {
			break
		}
	}
	// Any truncated Poisson mass contributes at most its weight; SF <= 1, so
	// clamping covers it.
	if sum > 1 {
		sum = 1
	}
	if sum < 0 {
		sum = 0
	}
	return sum, nil
}

func lgammaInt(n int) float64 {
	v, _ := math.Lgamma(float64(n))
	return v
}

// NoncentralChiSquareLambdaForSF returns the noncentrality parameter λ at
// which a noncentral chi-square variable with k degrees of freedom exceeds
// x with probability p, i.e. SF(k, λ, x) = p. SF is strictly increasing in
// λ, so the root is found by bracketing and bisection. For p at or below
// the central value SF(k, 0, x) it returns 0 (no noncentrality needed).
//
// This inverse turns per-attack detection-probability thresholding
// (P_D ≥ δ) into a cheap comparison of residual components against
// σ·sqrt(λ_δ), which is what makes large keyspace sweeps affordable.
func NoncentralChiSquareLambdaForSF(k, x, p float64) (float64, error) {
	if k <= 0 || x < 0 || p <= 0 || p >= 1 {
		return 0, ErrDomain
	}
	central, err := ChiSquareSF(k, x)
	if err != nil {
		return 0, err
	}
	if p <= central {
		return 0, nil
	}
	lo, hi := 0.0, math.Max(x, 1.0)
	for i := 0; ; i++ {
		sf, err := NoncentralChiSquareSF(k, hi, x)
		if err != nil {
			return 0, err
		}
		if sf >= p {
			break
		}
		hi *= 2
		if i > 100 {
			return 0, errors.New("stat: cannot bracket noncentrality parameter")
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		sf, err := NoncentralChiSquareSF(k, mid, x)
		if err != nil {
			return 0, err
		}
		if sf < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-10*(1+hi) {
			break
		}
	}
	return (lo + hi) / 2, nil
}
