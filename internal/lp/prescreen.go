package lp

import (
	"math"

	"gridmtd/internal/mat"
)

// Farkas-ray recycling: when the dual simplex certifies a problem
// infeasible it does so by exhibiting a row-multiplier vector y (the dual
// ray at the violated row) such that the implied valid inequality
// (yᵀA)·x ≤ yᵀb cannot be met by any x inside the variable bounds. On an
// inequality row, y_r ≥ 0 pairs with the row's upper side Bub_r, and a
// ranged row may also carry y_r < 0, which pairs with its lower side
// Lub_r. That certificate is a property of (A, b, lo, up) alone,
// not of the pivot path that found it — so a ray captured from one
// infeasible candidate can be re-tested, exactly, against the next
// candidate's data in O(m·n) and, when it still certifies, IS the answer.
// The selection search probes many reactance configurations whose dispatch
// LPs are infeasible for the same structural reason (the same overloaded
// cut), so recycling recent rays converts the repeated 15–22 ms infeasible
// dual-simplex runs of a cold ieee300 selection into microsecond screens.
//
// Certificates are indexed by their STRUCTURAL CAUSE — the basic variable
// whose bound violation no entering column could repair, and the violated
// direction. Distinct causes are distinct overloaded cuts; one search can
// alternate between several of them (different corners of the device box
// overload different line groups), and the old newest-first ring let a
// burst of one cause evict the rays of every other. The index instead
// retains the newest ray PER cause (a fresher ray for the same cut
// supersedes its stale predecessor rather than crowding out unrelated
// ones) and probes causes most-recently-useful first, bounding the probes
// per miss so a screen miss never costs more than the historical ring
// scan.
//
// Soundness does not rest on where a stored ray came from: every use
// recomputes yᵀA and yᵀb against the candidate's own data and declares
// infeasibility only when the bound gap exceeds a conservatively scaled
// tolerance — the same "trust only certificates" rule the warm solver
// already follows. A stale ray can only miss (costing one normal solve),
// never wrongly reject.

const (
	// farkasIndexCap bounds the number of distinct structural causes the
	// index retains (MRU eviction past it). Selections see a handful of
	// binding cut patterns; 32 is a wide ceiling, not a working set.
	farkasIndexCap = 32
	// farkasProbeMax bounds the O(m·n) ray revalidations per pre-screen
	// miss, keeping the worst-case miss cost at the historical 8-entry
	// ring's while the MRU ordering concentrates hits in the first
	// probes.
	farkasProbeMax = 8
)

// farkasCause identifies the structural reason a dual ray certified
// infeasibility: the basic variable whose violated bound no entering
// column could repair, and which bound it violated.
type farkasCause struct {
	leave      int
	belowLower bool
}

// farkasRay is one stored infeasibility certificate: the stacked-row
// multipliers (equality rows first, then inequality rows — negative only
// on rows with a finite lower bound), the problem signature they apply
// to, and the structural cause they were captured at.
type farkasRay struct {
	y           []float64
	n, nEq, nUb int
	cause       farkasCause
}

// prescreen tests the indexed rays, most-recently-useful first and at
// most farkasProbeMax of them, against the problem's exact data. It
// returns true only when some ray certifies infeasibility for this
// problem; the certifying ray moves to the front of the probe order.
func (s *RevisedSolver) prescreen(p *Problem, n, nEq, nUb int) bool {
	probes := 0
	for i := range s.rays {
		if probes >= farkasProbeMax {
			break
		}
		ray := &s.rays[i]
		if ray.n != n || ray.nEq != nEq || ray.nUb != nUb {
			continue
		}
		probes++
		s.stats.PrescreenProbes++
		if s.rayCertifies(p, ray.y, n, nEq, nUb) {
			s.promoteRay(i)
			return true
		}
	}
	return false
}

// promoteRay moves the ray at index i to the front of the MRU order.
func (s *RevisedSolver) promoteRay(i int) {
	if i == 0 {
		return
	}
	r := s.rays[i]
	copy(s.rays[1:i+1], s.rays[:i])
	s.rays[0] = r
}

// rayCertifies recomputes c = yᵀA and yᵀb for the candidate problem and
// reports whether min_{lo≤x≤up} cᵀx > yᵀb by more than a scale-aware
// tolerance — the exact Farkas infeasibility condition. A negative
// multiplier on an inequality row reads the row's lower bound Lub. Any
// infinite bound the ray or the minimization would need makes the ray
// inconclusive (never a wrong verdict, just no screen).
func (s *RevisedSolver) rayCertifies(p *Problem, y []float64, n, nEq, nUb int) bool {
	s.rayScratch = growF(s.rayScratch, n)
	c := s.rayScratch[:n]
	for j := range c {
		c[j] = 0
	}
	rhs, scale := 0.0, 0.0
	for r := 0; r < nEq+nUb; r++ {
		yr := y[r]
		if yr == 0 {
			continue
		}
		var row []float64
		var b float64
		if r < nEq {
			row, b = p.Aeq.RowView(r), p.Beq[r]
		} else {
			row, b = p.Aub.RowView(r-nEq), p.Bub[r-nEq]
			if yr < 0 {
				if b = p.rowLower(r - nEq); math.IsInf(b, -1) {
					return false
				}
			}
		}
		mat.AxpyVec(yr, row, c)
		rhs += yr * b
		scale += math.Abs(yr * b)
	}
	minAct := 0.0
	for j := 0; j < n; j++ {
		cj := c[j]
		if cj == 0 {
			continue
		}
		lo, up := p.bound(j)
		var v float64
		if cj > 0 {
			if math.IsInf(lo, -1) {
				return false
			}
			v = cj * lo
		} else {
			if math.IsInf(up, 1) {
				return false
			}
			v = cj * up
		}
		minAct += v
		scale += math.Abs(v)
	}
	return minAct > rhs+feasTol*(1+scale)
}

// captureRay is called at the dual loop's certified-infeasible exit, while
// s.pi still holds the dual ray B⁻ᵀe_pos of the violated row; cause names
// the basic variable (and direction) whose violation proved irreparable.
// In both orientations it clamps to 0 the negative components on
// inequality rows without a finite lower bound (a ranged row keeps its
// negative multiplier, which pairs with Lub) and stores whichever one
// certifies the current (known-infeasible) problem — self-validating, so
// a capture that would not have screened its own problem is simply
// dropped.
func (s *RevisedSolver) captureRay(p *Problem, cause farkasCause) {
	n, nEq, nUb := s.sigN, s.sigEq, s.sigUb
	m := nEq + nUb
	if len(s.pi) < m {
		return
	}
	for _, sgn := range [2]float64{1, -1} {
		s.rayCand = growF(s.rayCand, m)
		y := s.rayCand[:m]
		maxAbs := 0.0
		for r := 0; r < m; r++ {
			v := sgn * s.pi[r]
			if r >= nEq && v < 0 && math.IsInf(p.rowLower(r-nEq), -1) {
				v = 0
			}
			y[r] = v
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 {
			continue
		}
		inv := 1 / maxAbs
		for r := range y {
			y[r] *= inv
		}
		if !s.rayCertifies(p, y, n, nEq, nUb) {
			continue
		}
		s.storeRay(y, n, nEq, nUb, cause)
		return
	}
}

// storeRay places a copy of y at the front of the MRU index. A ray with
// the same structural cause and signature is superseded in place (the
// newest certificate for a cut is the one its future candidates resemble)
// and exact duplicates are just promoted; past the cause cap the
// least-recently-useful cause is evicted.
func (s *RevisedSolver) storeRay(y []float64, n, nEq, nUb int, cause farkasCause) {
	for i := range s.rays {
		r := &s.rays[i]
		if r.n != n || r.nEq != nEq || r.nUb != nUb || r.cause != cause {
			continue
		}
		if !equalVec(r.y, y) {
			r.y = append(r.y[:0], y...)
		}
		s.promoteRay(i)
		return
	}
	ray := farkasRay{y: append([]float64(nil), y...), n: n, nEq: nEq, nUb: nUb, cause: cause}
	if len(s.rays) < farkasIndexCap {
		s.rays = append(s.rays, farkasRay{})
	}
	copy(s.rays[1:], s.rays[:len(s.rays)-1])
	s.rays[0] = ray
}

func equalVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
