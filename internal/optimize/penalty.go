package optimize

// Constraint represents an inequality constraint g(x) <= 0.
type Constraint func(x []float64) float64

// Penalized wraps an objective with quadratic penalties for violated
// constraints: f(x) + mu * Σ max(0, g_i(x))². With a sufficiently large mu
// the unconstrained minimum of the wrapped function approaches the
// constrained minimum; the MTD selection uses it to enforce the
// γ(H, H') >= γ_th effectiveness constraint inside derivative-free search.
func Penalized(f Objective, cons []Constraint, mu float64) Objective {
	return func(x []float64) float64 {
		v := f(x)
		for _, g := range cons {
			if viol := g(x); viol > 0 {
				v += mu * viol * viol
			}
		}
		return v
	}
}

// InfeasibleObjective is a large sentinel value local solvers can use for
// points where the objective itself is undefined (e.g. the inner OPF is
// infeasible). It is finite so simplex arithmetic stays well-behaved.
const InfeasibleObjective = 1e12
