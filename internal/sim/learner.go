// Package sim models the attacker's side of the paper's Section IV-A
// argument: subspace learning of Col(H) from eavesdropped measurements
// (Kim, Tong & Thomas), which needs many load-diverse samples, and the
// staleness one MTD perturbation induces in the learned model. The
// scenario runner's Learning workload drives it; the Section VII-C
// operating day lives in the runner's DaySweep.
package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"gridmtd/internal/grid"
	"gridmtd/internal/mat"
	"gridmtd/internal/opf"
	"gridmtd/internal/subspace"
)

// EstimateColumnSpace implements the attacker's subspace learning (Kim,
// Tong & Thomas 2015): given eavesdropped measurement vectors (each length
// M), it returns an orthonormal basis of the best rank-`dim` approximation
// of their span — the attacker's estimate of Col(H). The estimate needs
// measurement diversity (varying loads) to converge; this is the basis for
// the paper's argument that hourly MTD outpaces the attacker.
func EstimateColumnSpace(samples [][]float64, dim int) (*mat.Dense, error) {
	if len(samples) == 0 {
		return nil, errors.New("sim: no samples")
	}
	m := len(samples[0])
	if dim <= 0 || dim > m {
		return nil, fmt.Errorf("sim: invalid subspace dimension %d", dim)
	}
	if len(samples) < dim {
		return nil, fmt.Errorf("sim: %d samples cannot determine a %d-dimensional subspace", len(samples), dim)
	}
	// Stack samples as columns of an M×K matrix and take the top-dim left
	// singular vectors.
	z := mat.NewDense(m, len(samples))
	for k, s := range samples {
		if len(s) != m {
			return nil, errors.New("sim: inconsistent sample lengths")
		}
		z.SetCol(k, s)
	}
	work := z
	if work.Rows() < work.Cols() {
		// One-sided Jacobi needs rows >= cols; more samples than sensors is
		// fine, just decompose the transpose and use V.
		svd := mat.ComputeSVD(work.T())
		return svd.V.Submatrix(0, m, 0, dim), nil
	}
	svd := mat.ComputeSVD(work)
	return svd.U.Submatrix(0, m, 0, dim), nil
}

// LearningConfig drives SimulateLearning.
type LearningConfig struct {
	// Samples is the number of eavesdropped measurement vectors.
	Samples int
	// Sigma is the measurement noise level (per-unit).
	Sigma float64
	// JitterMW is the standard deviation of the per-bus injection
	// fluctuations around the operating point that provide information
	// diversity across samples. Every bus fluctuates (demand noise,
	// metering-epoch mismatch), which is the "maximum information
	// diversity" assumption of the subspace-learning analysis the paper
	// cites for its 500-1000 sample estimate; buses that never vary would
	// leave state directions unidentifiable.
	JitterMW float64
	// Seed seeds the sampler.
	Seed int64
}

// LearningOutcome reports how well the attacker learned the system.
type LearningOutcome struct {
	// SubspaceError is γ(Ĥ, H): the largest principal angle between the
	// learned subspace and the true Col(H). Zero means fully learned.
	SubspaceError float64
	// Basis is the learned orthonormal basis (M×(N−1)).
	Basis *mat.Dense
}

// SimulateLearning generates cfg.Samples eavesdropped measurements of the
// network operating at reactances x, with every bus injection jittered
// around the OPF operating point, runs the subspace estimator, and reports
// the angle to the true column space. It is the repository's executable
// version of the paper's Section IV-A argument for the MTD update
// interval: the error shrinks as samples accumulate, and any reactance
// perturbation invalidates the estimate.
func SimulateLearning(n *grid.Network, x []float64, cfg LearningConfig) (*LearningOutcome, error) {
	if cfg.Samples <= 0 {
		return nil, errors.New("sim: need at least one sample")
	}
	if cfg.Sigma < 0 || cfg.JitterMW < 0 {
		return nil, errors.New("sim: negative noise settings")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Operating point.
	res, err := opf.SolveDispatch(n, x)
	if err != nil {
		return nil, fmt.Errorf("sim: operating point: %w", err)
	}
	inj0 := n.InjectionsMW(res.DispatchMW)
	h := n.MeasurementMatrix(x)
	rb, err := mat.ComputeLU(n.ReducedB(x))
	if err != nil {
		return nil, fmt.Errorf("sim: singular susceptance matrix: %w", err)
	}
	p0 := n.ReduceVec(mat.ScaleVec(1/n.BaseMVA, inj0))

	samples := make([][]float64, 0, cfg.Samples)
	for k := 0; k < cfg.Samples; k++ {
		// Jitter every (non-slack) bus injection; the slack absorbs the
		// imbalance, as in real operation.
		p := mat.CopyVec(p0)
		for i := range p {
			p[i] += rng.NormFloat64() * cfg.JitterMW / n.BaseMVA
		}
		theta := rb.Solve(p)
		z := mat.MulVec(h, theta)
		for i := range z {
			z[i] += rng.NormFloat64() * cfg.Sigma
		}
		samples = append(samples, z)
	}
	basis, err := EstimateColumnSpace(samples, n.N()-1)
	if err != nil {
		return nil, err
	}
	return &LearningOutcome{
		SubspaceError: subspace.Gamma(h, basis),
		Basis:         basis,
	}, nil
}

// BasisGamma returns the angle γ between a learned subspace estimate and
// the true measurement column space at reactances x. After an MTD
// perturbation this angle is large: the attacker's model is stale.
func BasisGamma(n *grid.Network, x []float64, out *LearningOutcome) float64 {
	return subspace.Gamma(n.MeasurementMatrix(x), out.Basis)
}
