package lp

import (
	"math"

	"gridmtd/internal/mat"
)

// Solver is a reusable dense two-phase simplex solver. The MTD selection
// search solves thousands of structurally identical dispatch LPs; a Solver
// keeps the standard-form arrays, the tableau, the reduced-cost row and the
// basis bookkeeping alive across solves so the steady-state per-solve
// allocation is just the returned Solution. The pivot sequence is exactly
// the one package-level Solve has always performed (Bland's rule,
// identical tie-breaking), so solutions are bitwise identical to the
// historical solver.
//
// A Solver is not safe for concurrent use; use one per goroutine.
type Solver struct {
	// Standard-form model: min cᵀy s.t. Ay = b, y >= 0.
	vmap     []varMap
	upperCol []int
	upperRhs []float64
	lowRows  []int     // Aub rows with a finite lower bound, in row order
	a        []float64 // m×n, flat row-major
	b        []float64
	c        []float64
	m, n     int
	orig     int
	// Simplex scratch.
	tab   []float64 // m×width flat tableau with artificials and RHS
	z     []float64 // reduced-cost row, length width
	basis []int
	nzIdx []int // nonzero pivot-row columns, rebuilt per pivot
	y     []float64
}

// NewSolver returns an empty solver; buffers are grown on first use.
func NewSolver() *Solver { return &Solver{} }

// Solve solves the problem, reusing the solver's buffers. See the
// package-level Solve for the error contract.
func (s *Solver) Solve(p *Problem) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s.toStandardForm(p)
	y, err := s.simplex()
	if err != nil {
		return nil, err
	}
	orig := s.recover(y)
	obj := mat.Dot(p.C, orig)
	return &Solution{X: orig, Objective: obj, Status: StatusOptimal}, nil
}

func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growI(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// toStandardForm rewrites the problem as min cᵀy s.t. Ay = b, y >= 0 into
// the solver's buffers, mirroring the historical conversion exactly.
func (s *Solver) toStandardForm(p *Problem) {
	n := len(p.C)
	s.orig = n

	// Assign standard-form columns for the original variables.
	if cap(s.vmap) < n {
		s.vmap = make([]varMap, n)
	}
	s.vmap = s.vmap[:n]
	s.upperCol = s.upperCol[:0]
	s.upperRhs = s.upperRhs[:0]
	cols := 0
	for j := 0; j < n; j++ {
		lo, up := p.bound(j)
		switch {
		case !math.IsInf(lo, -1):
			s.vmap[j] = varMap{kind: 0, col: cols, shift: lo}
			if !math.IsInf(up, 1) {
				s.upperCol = append(s.upperCol, cols)
				s.upperRhs = append(s.upperRhs, up-lo)
			}
			cols++
		case !math.IsInf(up, 1):
			s.vmap[j] = varMap{kind: 1, col: cols, shift: up}
			cols++
		default:
			s.vmap[j] = varMap{kind: 2, col: cols}
			cols += 2
		}
	}

	nEq := 0
	if p.Aeq != nil {
		nEq = p.Aeq.Rows()
	}
	nUb := 0
	if p.Aub != nil {
		nUb = p.Aub.Rows()
	}
	s.lowRows = s.lowRows[:0]
	for i := 0; i < nUb; i++ {
		if !math.IsInf(p.rowLower(i), -1) {
			s.lowRows = append(s.lowRows, i)
		}
	}
	nLow := len(s.lowRows)
	nUp := len(s.upperCol)
	mRows := nEq + nUb + nLow + nUp
	nCols := cols + nUb + nLow + nUp // slacks for <= rows, row lower bounds and upper-bound rows
	s.m, s.n = mRows, nCols

	s.a = growF(s.a, mRows*nCols)
	for i := range s.a {
		s.a[i] = 0
	}
	s.b = growF(s.b, mRows)
	s.c = growF(s.c, nCols)
	for i := range s.c {
		s.c[i] = 0
	}

	// Objective in terms of standard-form variables, dropping the constant
	// from the shifts (added back in recover()).
	for j := 0; j < n; j++ {
		vm := s.vmap[j]
		switch vm.kind {
		case 0:
			s.c[vm.col] += p.C[j]
		case 1:
			s.c[vm.col] -= p.C[j]
		case 2:
			s.c[vm.col] += p.C[j]
			s.c[vm.col+1] -= p.C[j]
		}
	}

	// setRow expands original-variable coefficients into standard form,
	// returning the RHS adjustment caused by shifts.
	setRow := func(row []float64, coeffs func(j int) float64) (rhsAdjust float64) {
		for j := 0; j < n; j++ {
			v := coeffs(j)
			if v == 0 {
				continue
			}
			vm := s.vmap[j]
			switch vm.kind {
			case 0: // x = lo + y
				row[vm.col] += v
				rhsAdjust += v * vm.shift
			case 1: // x = up - y
				row[vm.col] -= v
				rhsAdjust += v * vm.shift
			case 2: // x = y+ - y-
				row[vm.col] += v
				row[vm.col+1] -= v
			}
		}
		return rhsAdjust
	}

	r := 0
	for i := 0; i < nEq; i++ {
		row := s.a[r*nCols : (r+1)*nCols]
		adj := setRow(row, func(j int) float64 { return p.Aeq.At(i, j) })
		s.b[r] = p.Beq[i] - adj
		r++
	}
	for i := 0; i < nUb; i++ {
		row := s.a[r*nCols : (r+1)*nCols]
		adj := setRow(row, func(j int) float64 { return p.Aub.At(i, j) })
		s.b[r] = p.Bub[i] - adj
		row[cols+i] = 1 // slack
		r++
	}
	// A ranged row's lower side is the mirrored row −Aub_i·x <= −Lub_i,
	// appended after every Aub row in row order, so a problem of ranged
	// rows gives bit for bit the tableau of its hand-written [A; −A] pairs.
	for t, i := range s.lowRows {
		row := s.a[r*nCols : (r+1)*nCols]
		adj := setRow(row, func(j int) float64 { return -p.Aub.At(i, j) })
		s.b[r] = -p.Lub[i] - adj
		row[cols+nUb+t] = 1 // slack
		r++
	}
	for i := 0; i < nUp; i++ {
		row := s.a[r*nCols : (r+1)*nCols]
		row[s.upperCol[i]] = 1
		row[cols+nUb+nLow+i] = 1 // slack
		s.b[r] = s.upperRhs[i]
		r++
	}

	// Normalize to b >= 0.
	for i := 0; i < mRows; i++ {
		if s.b[i] < 0 {
			s.b[i] = -s.b[i]
			row := s.a[i*nCols : (i+1)*nCols]
			for j := range row {
				row[j] = -row[j]
			}
		}
	}
}

// recover maps a standard-form solution back to original variables.
func (s *Solver) recover(y []float64) []float64 {
	x := make([]float64, s.orig)
	for j := 0; j < s.orig; j++ {
		vm := s.vmap[j]
		switch vm.kind {
		case 0:
			x[j] = vm.shift + y[vm.col]
		case 1:
			x[j] = vm.shift - y[vm.col]
		case 2:
			x[j] = y[vm.col] - y[vm.col+1]
		}
	}
	return x
}

// simplex runs phase 1 (artificial variables) then phase 2, returning the
// standard-form solution vector (owned by the solver). Once phase 1 ends
// the artificial columns are never read again, so the drive-out and
// phase-2 pivots restrict their updates to the live columns [0, n) plus
// the right-hand side — a pure dead-store elimination that leaves every
// live value bitwise unchanged.
func (s *Solver) simplex() ([]float64, error) {
	m, n := s.m, s.n
	if m == 0 {
		// No constraints: minimum is at y = 0 unless some cost is negative,
		// in which case the LP is unbounded.
		for _, cj := range s.c[:n] {
			if cj < -pivotTol {
				return nil, ErrUnbounded
			}
		}
		s.y = growF(s.y, n)
		for i := range s.y {
			s.y[i] = 0
		}
		return s.y, nil
	}

	// Tableau with artificial variables appended: columns [0,n) original,
	// [n, n+m) artificial, last column RHS. Every row gets an artificial:
	// seeding the basis with row slacks instead would start phase 1 from a
	// different vertex and reach the optimum along a different pivot path,
	// whose accumulated roundoff differs in the last bits — enough to
	// perturb the derivative-free searches built on top. Reproducibility
	// wins over the shorter phase 1 here.
	//
	// Phase 1 runs optimistically: under Bland's rule an artificial column
	// (index >= n, i.e. above every real column) is selected to enter only
	// when no real column has negative reduced cost — a pathological
	// re-entry that a feasible problem essentially never exercises. The
	// optimistic pass therefore scans only the real columns and skips
	// maintaining the artificial block entirely (those columns are written
	// but never read before the fallback check). If it ends with the
	// phase-1 objective still positive — the one situation where the
	// artificial pivots the optimistic pass cannot perform could matter —
	// the tableau is rebuilt and phase 1 reruns with full maintenance,
	// reproducing the historical sequence exactly.
	width := n + m + 1
	s.tab = growF(s.tab, m*width)
	tab := s.tab
	s.basis = growI(s.basis, m)
	basis := s.basis
	s.z = growF(s.z, width)
	z := s.z
	initPhase1 := func(full bool) {
		for i := 0; i < m; i++ {
			row := tab[i*width : (i+1)*width]
			copy(row, s.a[i*n:(i+1)*n])
			for j := n; j < width-1; j++ {
				row[j] = 0
			}
			row[n+i] = 1
			basis[i] = n + i
			row[width-1] = s.b[i]
		}
		// Phase 1 objective: minimize the sum of artificials. Reduced-cost
		// row z[j] = -Σ_i tab[i][j], with +1 for the artificial columns.
		// The optimistic pass needs only the real columns and the RHS.
		hi := n
		if full {
			hi = width - 1
		}
		for j := 0; j < hi; j++ {
			var sum float64
			for i := 0; i < m; i++ {
				sum += tab[i*width+j]
			}
			z[j] = -sum
		}
		if full {
			for j := n; j < n+m; j++ {
				z[j] += 1
			}
		}
		var sum float64
		for i := 0; i < m; i++ {
			sum += tab[i*width+width-1]
		}
		z[width-1] = -sum
	}

	initPhase1(false)
	if err := s.pivotLoop(tab, z, basis, m, width, n, n); err != nil {
		return nil, err
	}
	if -z[width-1] > feasTol {
		// The optimistic pass could not reach feasibility without the
		// artificial columns; rerun phase 1 exactly.
		initPhase1(true)
		if err := s.pivotLoop(tab, z, basis, m, width, width-1, n+m); err != nil {
			return nil, err
		}
		if -z[width-1] > feasTol { // phase-1 objective value
			return nil, ErrInfeasible
		}
	}

	// Drive any artificial variables out of the basis. The artificial
	// columns are dead from here on: nothing after the feasibility check
	// reads them, so the remaining pivots update only the live columns.
	for i := 0; i < m; i++ {
		if basis[i] < n {
			continue
		}
		for j := 0; j < n; j++ {
			if math.Abs(tab[i*width+j]) > pivotTol {
				s.doPivot(tab, z, basis, m, width, n, i, j)
				break
			}
		}
		// If no pivot column was found the row is redundant: harmless,
		// the basis keeps a zero-valued artificial.
	}

	// Phase 2: rebuild the reduced-cost row for the real objective and
	// forbid artificial columns from entering.
	for j := 0; j < n; j++ {
		z[j] = s.c[j]
	}
	for j := n; j < width; j++ {
		z[j] = 0
	}
	for i := 0; i < m; i++ {
		bi := basis[i]
		var cb float64
		if bi < n {
			cb = s.c[bi]
		}
		if cb == 0 {
			continue
		}
		row := tab[i*width : (i+1)*width]
		for j := 0; j < n; j++ {
			z[j] -= cb * row[j]
		}
		z[width-1] -= cb * row[width-1]
	}
	if err := s.pivotLoop(tab, z, basis, m, width, n, n); err != nil {
		return nil, err
	}

	s.y = growF(s.y, n)
	y := s.y
	for i := range y {
		y[i] = 0
	}
	for i, bi := range basis {
		if bi < n {
			y[bi] = tab[i*width+width-1]
			if y[bi] < 0 && y[bi] > -feasTol {
				y[bi] = 0
			}
		}
	}
	return y, nil
}

// pivotLoop runs simplex pivots with Bland's rule until no entering
// column among [0, limit) has negative reduced cost. live is the number of
// leading tableau columns still updated by pivots (the RHS column is
// always updated); limit never exceeds live.
func (s *Solver) pivotLoop(tab, z []float64, basis []int, m, width, live, limit int) error {
	for iter := 0; iter < maxSimplex; iter++ {
		// Bland's rule: smallest-index entering variable.
		enter := -1
		for j := 0; j < limit; j++ {
			if z[j] < -pivotTol {
				enter = j
				break
			}
		}
		if enter == -1 {
			return nil // optimal
		}
		// Ratio test; ties broken by smallest basis index (Bland).
		leave := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			aij := tab[i*width+enter]
			if aij <= pivotTol {
				continue
			}
			ratio := tab[i*width+width-1] / aij
			if ratio < best-1e-12 || (math.Abs(ratio-best) <= 1e-12 && (leave == -1 || basis[i] < basis[leave])) {
				best = ratio
				leave = i
			}
		}
		if leave == -1 {
			return ErrUnbounded
		}
		s.doPivot(tab, z, basis, m, width, live, leave, enter)
	}
	return ErrMaxIterations
}

// doPivot performs a Gauss-Jordan pivot on tab[row][col], updating the
// leading live columns plus the RHS of every row, the reduced-cost row and
// the basis bookkeeping. The nonzero columns of the scaled pivot row are
// collected once and only those columns are eliminated: subtracting f·0
// can only flip the sign of an existing zero, which no comparison or
// recovered solution observes, so results are unchanged while the (often
// sparse) early pivots touch a fraction of the tableau.
func (s *Solver) doPivot(tab, z []float64, basis []int, m, width, live, row, col int) {
	rhs := width - 1
	prow := tab[row*width : (row+1)*width]
	pv := prow[col]
	inv := 1 / pv
	if cap(s.nzIdx) < live+1 {
		s.nzIdx = make([]int, 0, width)
	}
	nz := s.nzIdx[:0]
	for j := 0; j < live; j++ {
		if v := prow[j] * inv; v != 0 {
			prow[j] = v
			nz = append(nz, j)
		} else {
			prow[j] = v
		}
	}
	prow[rhs] *= inv
	if prow[rhs] != 0 {
		nz = append(nz, rhs)
	}
	s.nzIdx = nz
	prow[col] = 1 // exact
	for i := 0; i < m; i++ {
		if i == row {
			continue
		}
		trow := tab[i*width : (i+1)*width]
		f := trow[col]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			trow[j] -= f * prow[j]
		}
		trow[col] = 0 // exact
	}
	f := z[col]
	if f != 0 {
		for _, j := range nz {
			z[j] -= f * prow[j]
		}
		z[col] = 0
	}
	basis[row] = col
}
