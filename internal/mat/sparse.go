package mat

import (
	"fmt"
	"math"
	"sort"
)

// ErrNotPositiveDefinite is returned by the sparse Cholesky factorization
// when a pivot is non-positive — for the reduced susceptance matrices this
// package factors, that means the network behind the matrix is islanded (or
// the matrix is otherwise not symmetric positive definite).
var ErrNotPositiveDefinite = fmt.Errorf("%w: not positive definite", ErrSingular)

// CSC is a compressed-sparse-column matrix of float64 values. Row indices
// are strictly ascending within each column and duplicates are summed at
// construction, so the pattern is canonical: two CSC matrices built from
// the same structural triplets share ColPtr/RowIdx exactly, which is what
// lets SparseChol.Refactor revalue a factorization without re-running the
// symbolic analysis.
type CSC struct {
	rows, cols int
	colPtr     []int // length cols+1
	rowIdx     []int // length nnz, ascending within each column
	values     []float64
}

// NewCSCFromTriplets builds an r×c CSC matrix from coordinate triplets,
// summing duplicate (i, j) entries. The input order is irrelevant; the
// resulting pattern depends only on the set of distinct coordinates.
func NewCSCFromTriplets(r, c int, is, js []int, vs []float64) *CSC {
	if len(is) != len(js) || len(is) != len(vs) {
		panic(ErrShape)
	}
	type entry struct {
		i, j int
		v    float64
	}
	entries := make([]entry, len(is))
	for k := range is {
		if is[k] < 0 || is[k] >= r || js[k] < 0 || js[k] >= c {
			panic(fmt.Sprintf("mat: triplet (%d, %d) out of range for %d x %d matrix", is[k], js[k], r, c))
		}
		entries[k] = entry{is[k], js[k], vs[k]}
	}
	sort.SliceStable(entries, func(a, b int) bool {
		if entries[a].j != entries[b].j {
			return entries[a].j < entries[b].j
		}
		return entries[a].i < entries[b].i
	})
	m := &CSC{rows: r, cols: c, colPtr: make([]int, c+1)}
	for k := 0; k < len(entries); {
		e := entries[k]
		v := e.v
		k++
		for k < len(entries) && entries[k].i == e.i && entries[k].j == e.j {
			v += entries[k].v
			k++
		}
		m.rowIdx = append(m.rowIdx, e.i)
		m.values = append(m.values, v)
		m.colPtr[e.j+1]++
	}
	for j := 0; j < c; j++ {
		m.colPtr[j+1] += m.colPtr[j]
	}
	return m
}

// Rows returns the number of rows.
func (m *CSC) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSC) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSC) NNZ() int { return len(m.rowIdx) }

// Values returns the backing value slice, ordered column-major to match the
// canonical pattern. Callers revaluing a fixed pattern (same triplet
// coordinates, new numbers) may overwrite it in place.
func (m *CSC) Values() []float64 { return m.values }

// ColPtr returns the column pointer slice (length Cols+1). Callers must
// treat it as read-only: it is the pattern.
func (m *CSC) ColPtr() []int { return m.colPtr }

// RowIdx returns the row index slice (length NNZ, ascending within each
// column). Callers must treat it as read-only.
func (m *CSC) RowIdx() []int { return m.rowIdx }

// Pos returns the storage position of entry (i, j), or -1 when the pattern
// has no such entry. It binary-searches the column, so construction-time
// index maps cost O(nnz·log nnz) overall.
func (m *CSC) Pos(i, j int) int {
	lo, hi := m.colPtr[j], m.colPtr[j+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if m.rowIdx[mid] < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < m.colPtr[j+1] && m.rowIdx[lo] == i {
		return lo
	}
	return -1
}

// MulVecInto computes m*x into dst (length Rows) and returns dst.
func (m *CSC) MulVecInto(dst, x []float64) []float64 {
	if len(x) != m.cols || len(dst) != m.rows {
		panic(ErrShape)
	}
	for i := range dst {
		dst[i] = 0
	}
	for j := 0; j < m.cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for p := m.colPtr[j]; p < m.colPtr[j+1]; p++ {
			dst[m.rowIdx[p]] += m.values[p] * xj
		}
	}
	return dst
}

// Dense materializes m as a dense matrix (tests and debugging).
func (m *CSC) Dense() *Dense {
	out := NewDense(m.rows, m.cols)
	for j := 0; j < m.cols; j++ {
		for p := m.colPtr[j]; p < m.colPtr[j+1]; p++ {
			out.Set(m.rowIdx[p], j, m.values[p])
		}
	}
	return out
}

// MinDegreeOrder returns a fill-reducing elimination order for a symmetric
// sparsity pattern given as an adjacency structure: adj[i] lists the
// neighbors of vertex i (self-loops and duplicates are tolerated). It runs
// the classical minimum-degree heuristic on the elimination graph —
// eliminating the minimum-degree vertex and connecting its neighbors into a
// clique — with deterministic smallest-index tie-breaking. The returned
// slice p is the permutation: p[k] is the original index eliminated at step
// k. For the few-hundred-vertex matrices of this project the simple
// quadratic implementation is far below measurement noise.
func MinDegreeOrder(n int, adj [][]int) []int {
	// Neighbor sets as boolean rows: O(n²) memory, trivial updates. The
	// largest supported cases (IEEE 300) make this a ~90 KB scratch.
	nb := make([][]bool, n)
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		nb[i] = make([]bool, n)
	}
	for i, row := range adj {
		for _, j := range row {
			if j == i || j < 0 || j >= n {
				continue
			}
			if !nb[i][j] {
				nb[i][j] = true
				deg[i]++
			}
			if !nb[j][i] {
				nb[j][i] = true
				deg[j]++
			}
		}
	}
	eliminated := make([]bool, n)
	order := make([]int, 0, n)
	for len(order) < n {
		best, bestDeg := -1, n+1
		for i := 0; i < n; i++ {
			if !eliminated[i] && deg[i] < bestDeg {
				best, bestDeg = i, deg[i]
			}
		}
		// Connect the eliminated vertex's remaining neighbors into a clique.
		var nbrs []int
		for j := 0; j < n; j++ {
			if nb[best][j] && !eliminated[j] {
				nbrs = append(nbrs, j)
			}
		}
		for _, a := range nbrs {
			if nb[a][best] {
				nb[a][best] = false
				deg[a]--
			}
			for _, b := range nbrs {
				if a != b && !nb[a][b] {
					nb[a][b] = true
					deg[a]++
				}
			}
		}
		eliminated[best] = true
		order = append(order, best)
	}
	return order
}

// SparseChol is a sparse Cholesky factorization of a symmetric positive
// definite matrix A with a fill-reducing permutation: P·A·Pᵀ = L·Lᵀ. The
// symbolic analysis (ordering, elimination tree, pattern of L) runs once at
// construction; Refactor revalues the numeric factors for a matrix with the
// identical pattern, which is the per-candidate operation of the MTD
// searches (the reactances change every candidate, the topology never
// does).
type SparseChol struct {
	n    int
	p    []int // p[k] = original index of the k-th pivot
	pinv []int // pinv[i] = position of original index i in the pivot order

	// Permuted matrix C = P·A·Pᵀ, upper triangle (column-major), with a map
	// from A's storage positions to C's so Refactor is a gather + factor.
	cp, ci []int
	cx     []float64
	amap   []int // A storage position -> C storage position (-1: lower-triangle duplicate folded elsewhere)

	parent []int // elimination tree of C

	// Factor L (unit structure: diagonal entry first in each column).
	lp, li []int
	lx     []float64

	// Scratch.
	w    []int
	x    []float64
	s    []int
	cfin []int
	y    []float64 // solve scratch
}

// NewSparseChol analyzes and factors the symmetric positive definite matrix
// a (both triangles stored, as a susceptance-style assembly produces). It
// returns ErrNotPositiveDefinite (an ErrSingular) when a pivot is
// non-positive.
func NewSparseChol(a *CSC) (*SparseChol, error) {
	if a.rows != a.cols {
		panic("mat: sparse Cholesky requires a square matrix")
	}
	n := a.rows
	c := &SparseChol{n: n}

	// Fill-reducing order from the symmetric pattern.
	adj := make([][]int, n)
	for j := 0; j < n; j++ {
		for p := a.colPtr[j]; p < a.colPtr[j+1]; p++ {
			i := a.rowIdx[p]
			if i != j {
				adj[j] = append(adj[j], i)
			}
		}
	}
	c.p = MinDegreeOrder(n, adj)
	c.pinv = make([]int, n)
	for k, orig := range c.p {
		c.pinv[orig] = k
	}

	// C = P·A·Pᵀ upper triangle with A-position map.
	c.buildPermuted(a)

	// Elimination tree of C (upper-triangle CSC).
	c.parent = etree(n, c.cp, c.ci)

	// Column counts of L via ereach over each row, then allocate L.
	c.w = make([]int, n)
	c.s = make([]int, n)
	c.x = make([]float64, n)
	counts := make([]int, n)
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	for k := 0; k < n; k++ {
		counts[k]++ // diagonal
		for p := c.cp[k]; p < c.cp[k+1]; p++ {
			i := c.ci[p]
			for t := i; t != -1 && t < k && mark[t] != k; t = c.parent[t] {
				counts[t]++ // L(k, t) below the diagonal of column t
				mark[t] = k
			}
		}
	}
	c.lp = make([]int, n+1)
	for k := 0; k < n; k++ {
		c.lp[k+1] = c.lp[k] + counts[k]
	}
	c.li = make([]int, c.lp[n])
	c.lx = make([]float64, c.lp[n])
	c.cfin = make([]int, n)
	c.y = make([]float64, n)

	if err := c.factor(); err != nil {
		return nil, err
	}
	return c, nil
}

// buildPermuted constructs the upper triangle of C = P·A·Pᵀ and the A→C
// position map used by Refactor.
func (c *SparseChol) buildPermuted(a *CSC) {
	n := c.n
	type centry struct {
		i, j, apos int
		v          float64
	}
	var entries []centry
	for j := 0; j < n; j++ {
		for p := a.colPtr[j]; p < a.colPtr[j+1]; p++ {
			i := a.rowIdx[p]
			pi, pj := c.pinv[i], c.pinv[j]
			if pi > pj {
				// Lower-triangle entry of C; its transpose twin carries the
				// value (A is symmetric), so skip it in the map.
				continue
			}
			entries = append(entries, centry{pi, pj, p, a.values[p]})
		}
	}
	sort.Slice(entries, func(x, y int) bool {
		if entries[x].j != entries[y].j {
			return entries[x].j < entries[y].j
		}
		return entries[x].i < entries[y].i
	})
	c.cp = make([]int, n+1)
	c.ci = c.ci[:0]
	c.cx = c.cx[:0]
	c.amap = make([]int, a.NNZ())
	for i := range c.amap {
		c.amap[i] = -1
	}
	for _, e := range entries {
		c.amap[e.apos] = len(c.ci)
		c.ci = append(c.ci, e.i)
		c.cx = append(c.cx, e.v)
		c.cp[e.j+1]++
	}
	for j := 0; j < n; j++ {
		c.cp[j+1] += c.cp[j]
	}
}

// etree computes the elimination tree of a symmetric matrix given its upper
// triangle in CSC form (Liu's algorithm with path compression via
// ancestors).
func etree(n int, cp, ci []int) []int {
	parent := make([]int, n)
	ancestor := make([]int, n)
	for k := 0; k < n; k++ {
		parent[k] = -1
		ancestor[k] = -1
		for p := cp[k]; p < cp[k+1]; p++ {
			for i := ci[p]; i != -1 && i < k; {
				next := ancestor[i]
				ancestor[i] = k
				if next == -1 {
					parent[i] = k
				}
				i = next
			}
		}
	}
	return parent
}

// ereach computes the nonzero pattern of row k of L: the nodes reachable
// from the pattern of C(:, k) by walking up the elimination tree, in
// topological (descending-from-k) order. The result is written into
// c.s[top:n] and top is returned. c.w is the visited marker, keyed by k+1.
func (c *SparseChol) ereach(k int) int {
	top := c.n
	mark := k + 1
	c.w[k] = mark
	for p := c.cp[k]; p < c.cp[k+1]; p++ {
		i := c.ci[p]
		if i > k {
			continue
		}
		// Walk up the etree until a visited node, stacking the path.
		lenPath := 0
		for ; i != -1 && c.w[i] != mark; i = c.parent[i] {
			c.s[lenPath] = i
			lenPath++
			c.w[i] = mark
		}
		for lenPath > 0 {
			lenPath--
			top--
			c.s[top] = c.s[lenPath]
		}
	}
	return top
}

// factor runs the up-looking numeric factorization over the current values
// of C, writing L in place. Pivots are tested against a relative tolerance
// (not exact zero): a structurally islanded susceptance matrix produces a
// pivot of rounding-error size, and accepting it would silently yield
// garbage solves.
func (c *SparseChol) factor() error {
	n := c.n
	var maxDiag float64
	for k := 0; k < n; k++ {
		for p := c.cp[k]; p < c.cp[k+1]; p++ {
			if c.ci[p] == k {
				if d := math.Abs(c.cx[p]); d > maxDiag {
					maxDiag = d
				}
			}
		}
	}
	pivTol := 1e-12 * maxDiag
	for i := range c.w {
		c.w[i] = 0
	}
	for k := 0; k < n; k++ {
		c.cfin[k] = c.lp[k]
	}
	for k := 0; k < n; k++ {
		top := c.ereach(k)
		// Scatter the upper triangle of column k of C.
		d := 0.0
		for p := c.cp[k]; p < c.cp[k+1]; p++ {
			i := c.ci[p]
			if i < k {
				c.x[i] = c.cx[p]
			} else if i == k {
				d = c.cx[p]
			}
		}
		// Solve L(0:k, 0:k)·l = c for row k of L in etree order.
		for t := top; t < n; t++ {
			i := c.s[t]
			lki := c.x[i] / c.lx[c.lp[i]] // divide by L(i, i)
			c.x[i] = 0
			for p := c.lp[i] + 1; p < c.cfin[i]; p++ {
				c.x[c.li[p]] -= c.lx[p] * lki
			}
			d -= lki * lki
			q := c.cfin[i]
			c.cfin[i]++
			c.li[q] = k
			c.lx[q] = lki
		}
		if d <= pivTol {
			return ErrNotPositiveDefinite
		}
		q := c.cfin[k]
		c.cfin[k]++
		c.li[q] = k
		c.lx[q] = math.Sqrt(d)
	}
	return nil
}

// Refactor revalues the factorization for a matrix with the identical
// sparsity pattern as the one the factorization was built from (same
// triplet coordinates; only the values differ). This is the per-candidate
// hot path: no ordering, no symbolic analysis, no allocation.
func (c *SparseChol) Refactor(a *CSC) error {
	if a.rows != c.n || a.cols != c.n || a.NNZ() != len(c.amap) {
		panic(ErrShape)
	}
	for p, q := range c.amap {
		if q >= 0 {
			c.cx[q] = a.values[p]
		}
	}
	return c.factor()
}

// SolveInto writes the solution of A·x = b into dst and returns it. dst
// may alias b.
func (c *SparseChol) SolveInto(dst, b []float64) []float64 {
	n := c.n
	if len(b) != n || len(dst) != n {
		panic(ErrShape)
	}
	y := c.y
	for k := 0; k < n; k++ {
		y[k] = b[c.p[k]]
	}
	// Forward: L·z = y (diagonal entry first in each column).
	for j := 0; j < n; j++ {
		yj := y[j] / c.lx[c.lp[j]]
		y[j] = yj
		if yj == 0 {
			continue
		}
		for p := c.lp[j] + 1; p < c.lp[j+1]; p++ {
			y[c.li[p]] -= c.lx[p] * yj
		}
	}
	// Backward: Lᵀ·w = z.
	for j := n - 1; j >= 0; j-- {
		s := y[j]
		for p := c.lp[j] + 1; p < c.lp[j+1]; p++ {
			s -= c.lx[p] * y[c.li[p]]
		}
		y[j] = s / c.lx[c.lp[j]]
	}
	for k := 0; k < n; k++ {
		dst[c.p[k]] = y[k]
	}
	return dst
}

// SolveRowsInto solves A·X = B in place for nrhs right-hand sides stored
// row-major: x is n×nrhs, row i holding entry i of every right-hand side.
// Each elimination step is one contiguous axpy across the right-hand
// sides, which makes a block of them far cheaper than nrhs SolveInto
// calls. scratch must have length n·nrhs.
func (c *SparseChol) SolveRowsInto(x []float64, nrhs int, scratch []float64) {
	n, m := c.n, nrhs
	if len(x) != n*m || len(scratch) != n*m {
		panic(ErrShape)
	}
	y := scratch
	for k := 0; k < n; k++ {
		copy(y[k*m:(k+1)*m], x[c.p[k]*m:(c.p[k]+1)*m])
	}
	// Forward: L·Z = Y.
	for j := 0; j < n; j++ {
		yj := y[j*m : (j+1)*m]
		d := c.lx[c.lp[j]]
		for i := range yj {
			yj[i] /= d
		}
		for p := c.lp[j] + 1; p < c.lp[j+1]; p++ {
			AxpyFast(-c.lx[p], yj, y[c.li[p]*m:(c.li[p]+1)*m])
		}
	}
	// Backward: Lᵀ·W = Z.
	for j := n - 1; j >= 0; j-- {
		yj := y[j*m : (j+1)*m]
		for p := c.lp[j] + 1; p < c.lp[j+1]; p++ {
			AxpyFast(-c.lx[p], y[c.li[p]*m:(c.li[p]+1)*m], yj)
		}
		d := c.lx[c.lp[j]]
		for i := range yj {
			yj[i] /= d
		}
	}
	for k := 0; k < n; k++ {
		copy(x[c.p[k]*m:(c.p[k]+1)*m], y[k*m:(k+1)*m])
	}
}

// FillIn returns the number of stored entries of the factor L, a direct
// measure of how well the ordering contained fill.
func (c *SparseChol) FillIn() int { return len(c.li) }
