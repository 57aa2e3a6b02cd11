// Package attack constructs the false data injection (FDI) attacks the MTD
// defends against. An attacker who has learned the measurement matrix H of
// the state estimator injects a = H·c into the sensor measurements; such
// attacks are undetectable by the residual BDD (Liu, Ning & Reiter 2009).
// The package crafts structured attacks from chosen or random state
// perturbations c and applies the paper's ‖a‖₁/‖z‖₁ magnitude scaling.
// Whether an attack remains stealthy after an MTD changes the matrix to H'
// (Proposition 1) is the estimator's residual test, se.Estimator.IsStealthy.
package attack

import (
	"errors"
	"fmt"
	"math/rand"

	"gridmtd/internal/mat"
)

// Vector is a crafted FDI attack.
type Vector struct {
	// C is the state perturbation the attacker injects, in the reduced
	// (slack-removed) state space.
	C []float64
	// A = H·C is the measurement injection, length M.
	A []float64
}

// Craft builds the BDD-bypassing attack a = H·c for the (pre-perturbation)
// measurement matrix h.
func Craft(h *mat.Dense, c []float64) *Vector {
	if len(c) != h.Cols() {
		panic("attack: state perturbation length mismatch")
	}
	return &Vector{C: mat.CopyVec(c), A: mat.MulVec(h, c)}
}

// Random draws a random BDD-bypassing attack: c ~ N(0, I) scaled so that
// ‖a‖₁/‖z‖₁ = ratio against the operating-point measurement vector z (the
// paper uses ratio ≈ 0.08, keeping injections small relative to real
// measurements). It returns an error if z or the drawn direction is
// degenerate.
func Random(rng *rand.Rand, h *mat.Dense, z []float64, ratio float64) (*Vector, error) {
	c := make([]float64, h.Cols())
	a := make([]float64, h.Rows())
	if err := randomInto(rng, mat.NewCSCFromDense(h), z, ratio, c, a); err != nil {
		return nil, err
	}
	return &Vector{C: c, A: a}, nil
}

// randomInto draws one random attack into the provided state and
// measurement slices, consuming the generator exactly as Random does. h is
// the measurement matrix's nonzeros: a = H·c sums only them, in the dense
// product's order, so a has mat.MulVecInto's bits at a fraction of its
// cost (H has a handful of nonzeros per row).
func randomInto(rng *rand.Rand, h *mat.CSC, z []float64, ratio float64, c, a []float64) error {
	if ratio <= 0 {
		return errors.New("attack: ratio must be positive")
	}
	zNorm := mat.Norm1(z)
	if zNorm == 0 {
		return errors.New("attack: zero measurement vector")
	}
	for i := range c {
		c[i] = rng.NormFloat64()
	}
	h.MulVecInto(a, c)
	aNorm := mat.Norm1(a)
	if aNorm == 0 {
		return errors.New("attack: degenerate attack direction")
	}
	scale := ratio * zNorm / aNorm
	for i, v := range c {
		c[i] = scale * v
	}
	for i, v := range a {
		a[i] = scale * v
	}
	return nil
}

// Batch is a set of attacks packed into two contiguous matrices — one row
// per attack. Compared to a slice of individual Vectors this is a single
// pair of allocations, and the evaluation loop that scans every attack's
// measurement injection walks memory sequentially instead of chasing a
// thousand heap pointers.
type Batch struct {
	c *mat.Dense // k×(N-1) state perturbations, one per row
	a *mat.Dense // k×M measurement injections, one per row
}

// NewBatch returns an empty batch with capacity for count attacks on a
// system with the given state and measurement dimensions.
func NewBatch(count, states, measurements int) *Batch {
	return &Batch{c: mat.NewDense(count, states), a: mat.NewDense(count, measurements)}
}

// RandomBatch draws count random attacks (see Random) into a packed batch.
// The generator is consumed exactly as count sequential Random calls
// would, so the attacks are bitwise identical to the unpacked path.
func RandomBatch(rng *rand.Rand, h *mat.Dense, z []float64, ratio float64, count int) (*Batch, error) {
	b := NewBatch(count, h.Cols(), h.Rows())
	hs := mat.NewCSCFromDense(h)
	for k := 0; k < count; k++ {
		if err := randomInto(rng, hs, z, ratio, b.c.RowView(k), b.a.RowView(k)); err != nil {
			return nil, fmt.Errorf("attack: sampling attack %d: %w", k, err)
		}
	}
	return b, nil
}

// Len returns the number of attacks in the batch.
func (b *Batch) Len() int { return b.a.Rows() }

// C returns attack i's state perturbation as a view into the batch.
func (b *Batch) C(i int) []float64 { return b.c.RowView(i) }

// A returns attack i's measurement injection a = H·c as a view into the
// batch.
func (b *Batch) A(i int) []float64 { return b.a.RowView(i) }
