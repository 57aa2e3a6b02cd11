// Package lp implements a dense two-phase simplex solver for linear
// programs of the form
//
//	min  cᵀx
//	s.t. Aeq·x  = beq
//	     lub <= Aub·x <= bub
//	     lower <= x <= upper
//
// It is the workhorse behind the DC optimal power flow: with linear
// generation costs the DC OPF is exactly such an LP. The flat-tableau
// two-phase solver (Solver) favours robustness (Bland's anti-cycling
// rule, explicit infeasible/unbounded detection) and performs the
// historical floating-point operations bit for bit — it anchors the
// bitwise-reproducible dense path. For the rating-heavy large cases the
// package also provides a bounded-variable revised dual simplex that
// solves each LP from a start basis its caller supplies (RevisedSolver;
// see revised.go): bound flips make the start dual feasible, and started
// from one optimal basis, the near-identical LPs of a local search solve
// in a few dual pivots. It cross-checks every warm answer against a
// feasibility/optimality certificate, falling back to the flat solver on
// any doubt.
//
// The revised solver can also answer one question about an LP without
// solving it. Recycled Farkas rays (prescreen.go) certify infeasibility
// of perturbed candidates before any pivoting, with the rays held in a
// structural-cause index so distinct failure modes screen concurrently.
// A ray is trusted only after it is re-evaluated against the candidate's
// exact data with a conservative margin: float error can weaken the
// screen (a missed skip), never produce a wrong verdict.
package lp

import (
	"errors"
	"fmt"
	"math"

	"gridmtd/internal/mat"
)

// Status describes the outcome of a solve.
type Status int

const (
	// StatusOptimal means an optimal solution was found.
	StatusOptimal Status = iota + 1
	// StatusInfeasible means the constraints admit no solution.
	StatusInfeasible
	// StatusUnbounded means the objective is unbounded below.
	StatusUnbounded
)

// String returns a human-readable status name.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ErrInfeasible is returned when the problem has no feasible point.
var ErrInfeasible = errors.New("lp: problem is infeasible")

// ErrUnbounded is returned when the objective is unbounded below.
var ErrUnbounded = errors.New("lp: problem is unbounded")

// ErrMaxIterations is returned if the simplex method fails to terminate
// within its iteration budget (should not happen with Bland's rule unless
// the problem is numerically pathological).
var ErrMaxIterations = errors.New("lp: iteration limit exceeded")

// Problem is an LP in the general form documented at the package level.
// Aeq/Beq and Aub/Bub may be nil (no constraints of that kind). Lub holds
// the row lower bounds of Aub: nil makes every Aub row one-sided, and a
// -Inf entry makes that row one-sided. A ranged row (finite Lub) is one
// row with a boxed slack on the revised path; the flat Solver expands it
// into the pair Aub_i·x <= Bub_i, −Aub_i·x <= −Lub_i. Lower and Upper may
// be nil (interpreted as -Inf/+Inf) or contain ±Inf entries.
type Problem struct {
	C     []float64
	Aeq   *mat.Dense
	Beq   []float64
	Aub   *mat.Dense
	Bub   []float64
	Lub   []float64
	Lower []float64
	Upper []float64
}

// Solution is the result of a successful solve.
type Solution struct {
	X         []float64
	Objective float64
	Status    Status
}

// Validate checks the dimensional consistency of the problem.
func (p *Problem) Validate() error {
	n := len(p.C)
	if n == 0 {
		return errors.New("lp: empty objective")
	}
	if p.Aeq != nil {
		if p.Aeq.Cols() != n {
			return fmt.Errorf("lp: Aeq has %d columns, want %d", p.Aeq.Cols(), n)
		}
		if len(p.Beq) != p.Aeq.Rows() {
			return fmt.Errorf("lp: Beq has length %d, want %d", len(p.Beq), p.Aeq.Rows())
		}
	} else if len(p.Beq) != 0 {
		return errors.New("lp: Beq without Aeq")
	}
	if p.Aub != nil {
		if p.Aub.Cols() != n {
			return fmt.Errorf("lp: Aub has %d columns, want %d", p.Aub.Cols(), n)
		}
		if len(p.Bub) != p.Aub.Rows() {
			return fmt.Errorf("lp: Bub has length %d, want %d", len(p.Bub), p.Aub.Rows())
		}
	} else if len(p.Bub) != 0 {
		return errors.New("lp: Bub without Aub")
	}
	if p.Lub != nil {
		if p.Aub == nil {
			return errors.New("lp: Lub without Aub")
		}
		if len(p.Lub) != p.Aub.Rows() {
			return fmt.Errorf("lp: Lub has length %d, want %d", len(p.Lub), p.Aub.Rows())
		}
		for i, l := range p.Lub {
			if l > p.Bub[i] {
				return fmt.Errorf("lp: row %d has lower bound %g > upper bound %g", i, l, p.Bub[i])
			}
		}
	}
	if p.Lower != nil && len(p.Lower) != n {
		return fmt.Errorf("lp: Lower has length %d, want %d", len(p.Lower), n)
	}
	if p.Upper != nil && len(p.Upper) != n {
		return fmt.Errorf("lp: Upper has length %d, want %d", len(p.Upper), n)
	}
	for j := 0; j < n; j++ {
		lo, up := p.bound(j)
		if lo > up {
			return fmt.Errorf("lp: variable %d has lower bound %g > upper bound %g", j, lo, up)
		}
	}
	return nil
}

func (p *Problem) bound(j int) (lo, up float64) {
	lo, up = math.Inf(-1), math.Inf(1)
	if p.Lower != nil {
		lo = p.Lower[j]
	}
	if p.Upper != nil {
		up = p.Upper[j]
	}
	return lo, up
}

// rowLower returns the lower bound of Aub row i, -Inf when the row is
// one-sided.
func (p *Problem) rowLower(i int) float64 {
	if p.Lub == nil {
		return math.Inf(-1)
	}
	return p.Lub[i]
}

// Solve solves the problem. On success Status is StatusOptimal; otherwise
// the error is ErrInfeasible, ErrUnbounded or ErrMaxIterations. Callers
// solving many LPs should hold a Solver and call its Solve method to reuse
// the tableau buffers; this function is the one-shot convenience form.
func Solve(p *Problem) (*Solution, error) {
	return NewSolver().Solve(p)
}

// varMap records how original variable j maps onto standard-form variables.
type varMap struct {
	kind  int // 0: shifted by lower (x = lo + y), 1: reflected (x = up - y), 2: free split (x = y+ - y-)
	col   int // first standard-form column
	shift float64
}

const (
	pivotTol   = 1e-9
	feasTol    = 1e-7
	maxSimplex = 20000
)
