// Package stat implements the probability distributions and statistical
// helpers needed by the bad data detector and the Monte-Carlo evaluation:
// the regularized incomplete gamma function, central and noncentral
// chi-square distributions, and summary statistics.
package stat

import (
	"errors"
	"math"
)

// ErrDomain is returned for arguments outside a function's domain.
var ErrDomain = errors.New("stat: argument out of domain")

const (
	gammaEps    = 1e-14
	gammaFPMin  = 1e-300
	gammaMaxIts = 500
)

// GammaIncUpper returns the regularized upper incomplete gamma function
// Q(a, x) = 1 - P(a, x).
func GammaIncUpper(a, x float64) (float64, error) {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return 0, ErrDomain
	}
	if x == 0 {
		return 1, nil
	}
	if x < a+1 {
		p, err := gammaSeries(a, x)
		if err != nil {
			return 0, err
		}
		return 1 - p, nil
	}
	return gammaContinuedFraction(a, x)
}

// gammaSeries evaluates P(a,x) by its power series (valid for x < a+1).
func gammaSeries(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < gammaMaxIts; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			return sum * math.Exp(-x+a*math.Log(x)-lg), nil
		}
	}
	return 0, errors.New("stat: incomplete gamma series did not converge")
}

// gammaContinuedFraction evaluates Q(a,x) by Lentz's continued fraction
// (valid for x >= a+1).
func gammaContinuedFraction(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / gammaFPMin
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIts; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < gammaFPMin {
			d = gammaFPMin
		}
		c = b + an/c
		if math.Abs(c) < gammaFPMin {
			c = gammaFPMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			return math.Exp(-x+a*math.Log(x)-lg) * h, nil
		}
	}
	return 0, errors.New("stat: incomplete gamma continued fraction did not converge")
}
