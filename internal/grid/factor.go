package grid

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"gridmtd/internal/mat"
)

// Backend names a reduced-susceptance factorization strategy.
type Backend int

const (
	// AutoBackend picks dense below SparseThreshold buses, sparse at or
	// above it.
	AutoBackend Backend = iota
	// DenseBackend forces the dense LU path — the historical code path,
	// bitwise identical to it.
	DenseBackend
	// SparseBackend forces the sparse Cholesky path (fill-reducing
	// ordering, CSC storage, triangular solves).
	SparseBackend
)

// String names the backend.
func (b Backend) String() string {
	switch b {
	case DenseBackend:
		return "dense"
	case SparseBackend:
		return "sparse"
	default:
		return "auto"
	}
}

// SparseThreshold is the bus count at which AutoBackend switches from the
// dense LU to the sparse Cholesky factorizer. Measured on the registered
// cases the sparse backend already wins the factor+PTDF unit at 30 buses
// (2.7×, growing to 10× at 118 — see PERF.md), but the paper's own
// 4/14/30-bus cases are pinned to the dense path anyway: their experiment
// outputs are bitwise-reproducibility contracts and only the dense backend
// performs the historical float operations. The same threshold keys every
// other dense/sparse seam: the warm-started revised simplex and the
// rank-|S| γ kernel engage only on the ≥-threshold path, which carries a
// 1e-9-agreement contract instead of the bitwise one.
const SparseThreshold = 50

// defaultBackend is the process-wide AutoBackend override, settable from
// command-line flags so dense-vs-sparse A/B runs need no code edits.
var defaultBackend atomic.Int32

// SetDefaultBackend overrides what AutoBackend resolves to for every
// factorizer and engine constructed afterwards. AutoBackend restores the
// size-based rule. Intended for process startup (the cmds' -backend flag);
// engines snapshot their resolution at construction time.
func SetDefaultBackend(b Backend) { defaultBackend.Store(int32(b)) }

// CurrentDefaultBackend returns the active AutoBackend override
// (AutoBackend when none is set).
func CurrentDefaultBackend() Backend { return Backend(defaultBackend.Load()) }

// Backends lists the selectable linear-algebra backends with one-line
// descriptions, in flag-value order — the shared source for the cmds'
// "-backend list" discoverability output (kept next to ParseBackend so the
// two stay in sync).
func Backends() []struct{ Name, Desc string } {
	return []struct{ Name, Desc string }{
		{"auto", "dense below the sparse threshold (50 buses), sparse at or above it"},
		{"dense", "historical dense LU path, bitwise-reproducible outputs"},
		{"sparse", "CSC + min-degree + sparse Cholesky, warm simplex, rank-|S| γ kernel (1e-9)"},
	}
}

// ParseBackend parses a -backend flag value: "auto", "dense" or "sparse".
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return AutoBackend, nil
	case "dense":
		return DenseBackend, nil
	case "sparse":
		return SparseBackend, nil
	default:
		return AutoBackend, fmt.Errorf("grid: unknown backend %q (want auto, dense or sparse)", s)
	}
}

// EffectiveBackend resolves a possibly-Auto backend choice for a network:
// the process-wide default first, then the SparseThreshold size rule. The
// result is always DenseBackend or SparseBackend.
func EffectiveBackend(n *Network, b Backend) Backend {
	if b == AutoBackend {
		b = CurrentDefaultBackend()
	}
	if b == AutoBackend {
		if n.N() >= SparseThreshold {
			return SparseBackend
		}
		return DenseBackend
	}
	return b
}

// BFactorizer factors the slack-reduced susceptance matrix B_r(x) of one
// network and answers solves against it. It is the pluggable seam between
// the grid model and the linear-algebra backends: the dense implementation
// performs exactly the historical operations (ReducedBInto + LU), the
// sparse one assembles B_r in CSC form and runs a fill-reducing sparse
// Cholesky. Which one a network gets is BAnalysis.Backend, or
// EffectiveBackend for a choice that may be Auto. A BFactorizer owns
// per-instance scratch and is NOT safe for concurrent use — engines keep
// one per worker.
type BFactorizer interface {
	// Reset (re)factors B_r at the reactance vector x (full length L).
	// After an error the factorizer must not be used for solves.
	Reset(x []float64) error
	// SolveInto solves B_r·y = b into dst and returns dst. dst must not
	// alias b for the dense backend.
	SolveInto(dst, b []float64) []float64
	// PTDFInto builds the L×(N-1) power transfer distribution factor
	// matrix D·Arᵀ·B_r⁻¹ for the reactances of the last Reset into dst.
	PTDFInto(dst *mat.Dense) error
}

// BlockSolver is the optional fast-path seam for callers that solve many
// right-hand sides against one factorization (the dispatch LP needs the
// generator buses' PTDF columns and one load flow, not all N-1 inverse
// columns): SolveRowsInto solves B_r·X = B in place for nrhs right-hand
// sides stored row-major in x ((N−1)×nrhs, row i holding entry i of every
// right-hand side), one contiguous axpy per elimination step; scratch has
// the length of x. Each column gets the bits SolveInto gives it. PTDF
// values built from it agree with PTDFInto to factorization roundoff, not
// bitwise (the full build reads the symmetric counterpart of each inverse
// entry), so the dense backend — whose PTDF is a bitwise historical
// contract — deliberately does not implement it.
type BlockSolver interface {
	SolveRowsInto(x []float64, nrhs int, scratch []float64) error
}

// NewBFactorizer returns the AutoBackend factorizer for the network.
func NewBFactorizer(n *Network) BFactorizer {
	return NewBFactorizerBackend(n, AutoBackend)
}

// NewBFactorizerBackend returns a factorizer with an explicit backend
// choice (benchmarks and the dense/sparse agreement tests).
func NewBFactorizerBackend(n *Network, b Backend) BFactorizer {
	return AnalyzeB(n, b).NewFactorizer()
}

// BAnalysis is the reactance-independent part of factoring B_r for one
// network: on the sparse backend, B_r's pattern, where each branch's
// contributions land in it and the symbolic Cholesky analysis (ordering,
// elimination tree, pattern of L); the dense backend has none. It is
// read-only once built, so one analysis serves every factorizer of a
// dispatch engine, from any goroutine, and each factorizer only refactors.
type BAnalysis struct {
	n       *Network
	backend Backend
	// Sparse backend only.
	pattern *mat.CSC // B_r's pattern; its values are never read
	// slots maps each branch to the storage positions of its up-to-four
	// contributions to B_r: (ri,ri), (rj,rj), (ri,rj), (rj,ri); -1 marks a
	// contribution that falls on the slack row/column.
	slots [][4]int
	sym   *mat.CholSymbolic
}

// AnalyzeB analyzes B_r's structure for the network under the resolved
// backend choice b. It reads only the topology, so it cannot fail.
func AnalyzeB(n *Network, b Backend) *BAnalysis {
	a := &BAnalysis{n: n, backend: EffectiveBackend(n, b)}
	if a.backend != SparseBackend {
		return a
	}
	nb1 := n.N() - 1
	s := n.SlackBus - 1
	var is, js []int
	for _, br := range n.Branches {
		ri := reducedColIndex(br.From-1, s)
		rj := reducedColIndex(br.To-1, s)
		if ri >= 0 {
			is, js = append(is, ri), append(js, ri)
		}
		if rj >= 0 {
			is, js = append(is, rj), append(js, rj)
		}
		if ri >= 0 && rj >= 0 {
			is, js = append(is, ri, rj), append(js, rj, ri)
		}
	}
	a.pattern = mat.NewCSCFromTriplets(nb1, nb1, is, js, make([]float64, len(is)))
	a.slots = make([][4]int, n.L())
	for l, br := range n.Branches {
		ri := reducedColIndex(br.From-1, s)
		rj := reducedColIndex(br.To-1, s)
		slot := [4]int{-1, -1, -1, -1}
		if ri >= 0 {
			slot[0] = a.pattern.Pos(ri, ri)
		}
		if rj >= 0 {
			slot[1] = a.pattern.Pos(rj, rj)
		}
		if ri >= 0 && rj >= 0 {
			slot[2] = a.pattern.Pos(ri, rj)
			slot[3] = a.pattern.Pos(rj, ri)
		}
		a.slots[l] = slot
	}
	a.sym = mat.AnalyzeSparseChol(a.pattern)
	return a
}

// Backend reports the resolved backend (DenseBackend or SparseBackend).
func (a *BAnalysis) Backend() Backend { return a.backend }

// NewFactorizer returns a factorizer that shares the analysis; it owns
// only its numeric storage and scratch.
func (a *BAnalysis) NewFactorizer() BFactorizer {
	if a.backend == SparseBackend {
		return newSparseBFactorizer(a)
	}
	return newDenseBFactorizer(a.n)
}

// errNotFactored is returned when PTDFInto runs before a successful Reset.
var errNotFactored = errors.New("grid: factorizer used before a successful Reset")

// buildDATInto fills the L×(N-1) matrix D·Arᵀ for reactances x: row l has
// +1/x_l at the from-bus column and −1/x_l at the to-bus column (skipping
// the slack). The entries and their write order match the historical
// constructions in Network.PTDF and the dispatch engine exactly.
func (n *Network) buildDATInto(dat *mat.Dense, x []float64) {
	s := n.SlackBus - 1
	dat.Zero()
	for l, br := range n.Branches {
		y := 1 / x[l]
		if c := reducedColIndex(br.From-1, s); c >= 0 {
			dat.Set(l, c, y)
		}
		if c := reducedColIndex(br.To-1, s); c >= 0 {
			dat.Set(l, c, -y)
		}
	}
}

// reducedColIndex maps a 0-based bus to its slack-reduced column (-1 at the
// slack bus).
func reducedColIndex(bus, slack int) int {
	switch {
	case bus == slack:
		return -1
	case bus < slack:
		return bus
	default:
		return bus - 1
	}
}

// ---- Dense backend --------------------------------------------------------

type denseBFactorizer struct {
	n  *Network
	x  []float64
	br *mat.Dense
	lu mat.LU
	ok bool
	// PTDF scratch, allocated on first PTDFInto — solve-only callers
	// (dcflow) never pay for it.
	inv        *mat.Dense
	dat        *mat.Dense
	ecol, icol []float64
}

func newDenseBFactorizer(n *Network) *denseBFactorizer {
	nb := n.N()
	return &denseBFactorizer{
		n:  n,
		x:  make([]float64, n.L()),
		br: mat.NewDense(nb-1, nb-1),
	}
}

func (f *denseBFactorizer) Reset(x []float64) error {
	copy(f.x, x)
	f.n.ReducedBInto(x, f.br)
	if err := f.lu.Reset(f.br); err != nil {
		f.ok = false
		return err
	}
	f.ok = true
	return nil
}

func (f *denseBFactorizer) SolveInto(dst, b []float64) []float64 {
	return f.lu.SolveInto(dst, b)
}

func (f *denseBFactorizer) PTDFInto(dst *mat.Dense) error {
	if !f.ok {
		return errNotFactored
	}
	nb1 := f.n.N() - 1
	if f.inv == nil {
		f.inv = mat.NewDense(nb1, nb1)
		f.dat = mat.NewDense(f.n.L(), nb1)
		f.ecol = make([]float64, nb1)
		f.icol = make([]float64, nb1)
	}
	// Invert B_r column by column, then multiply — exactly the historical
	// sequence (explicit inverse, then the product), so dense PTDFs are
	// bitwise identical to the pre-factorizer code.
	for j := 0; j < nb1; j++ {
		for i := range f.ecol {
			f.ecol[i] = 0
		}
		f.ecol[j] = 1
		f.lu.SolveInto(f.icol, f.ecol)
		f.inv.SetCol(j, f.icol)
	}
	f.n.buildDATInto(f.dat, f.x)
	mat.MulInto(dst, f.dat, f.inv)
	return nil
}

// ---- Sparse backend -------------------------------------------------------

type sparseBFactorizer struct {
	a    *BAnalysis
	x    []float64
	csc  *mat.CSC // B_r at x: the analysis's pattern, this factorizer's values
	chol *mat.SparseChol
	ok   bool
	// PTDF scratch, allocated on first PTDFInto — solve-only callers
	// (dcflow) never pay for it.
	invT *mat.Dense // row j = B_r⁻¹·e_j (B_r is symmetric)
	ecol []float64
}

func newSparseBFactorizer(a *BAnalysis) *sparseBFactorizer {
	return &sparseBFactorizer{
		a:    a,
		x:    make([]float64, a.n.L()),
		csc:  a.pattern.SharePattern(),
		chol: a.sym.NewFactor(),
	}
}

func (f *sparseBFactorizer) Reset(x []float64) error {
	if len(x) != f.a.n.L() {
		panic("grid: reactance vector length mismatch")
	}
	copy(f.x, x)
	vals := f.csc.Values()
	for i := range vals {
		vals[i] = 0
	}
	for l := range f.a.n.Branches {
		y := 1 / x[l]
		s := f.a.slots[l]
		if s[0] >= 0 {
			vals[s[0]] += y
		}
		if s[1] >= 0 {
			vals[s[1]] += y
		}
		if s[2] >= 0 {
			vals[s[2]] -= y
			vals[s[3]] -= y
		}
	}
	if err := f.chol.Refactor(f.csc); err != nil {
		f.ok = false
		return fmt.Errorf("grid: sparse susceptance factorization: %w", err)
	}
	f.ok = true
	return nil
}

func (f *sparseBFactorizer) SolveInto(dst, b []float64) []float64 {
	return f.chol.SolveInto(dst, b)
}

func (f *sparseBFactorizer) PTDFInto(dst *mat.Dense) error {
	if !f.ok {
		return errNotFactored
	}
	// B_r⁻¹ one column per triangular-solve pair; B_r is symmetric, so the
	// solved column j doubles as row j of the inverse and each PTDF row is
	// a scaled difference of two inverse rows:
	//   PTDF(l, :) = (1/x_l)·(B_r⁻¹(ri, :) − B_r⁻¹(rj, :)).
	// This skips the dense L×(N-1)×(N-1) multiplication entirely.
	n := f.a.n
	nb1 := n.N() - 1
	if f.invT == nil {
		f.invT = mat.NewDense(nb1, nb1)
		f.ecol = make([]float64, nb1)
	}
	for j := 0; j < nb1; j++ {
		for i := range f.ecol {
			f.ecol[i] = 0
		}
		f.ecol[j] = 1
		f.chol.SolveInto(f.invT.RowView(j), f.ecol)
	}
	for l := range n.Branches {
		y := 1 / f.x[l]
		row := dst.RowView(l)
		ri := reducedColIndex(n.Branches[l].From-1, n.SlackBus-1)
		rj := reducedColIndex(n.Branches[l].To-1, n.SlackBus-1)
		switch {
		case ri >= 0 && rj >= 0:
			ra, rb := f.invT.RowView(ri), f.invT.RowView(rj)
			for k := range row {
				row[k] = y * (ra[k] - rb[k])
			}
		case ri >= 0:
			ra := f.invT.RowView(ri)
			for k := range row {
				row[k] = y * ra[k]
			}
		default:
			rb := f.invT.RowView(rj)
			for k := range row {
				row[k] = -y * rb[k]
			}
		}
	}
	return nil
}

// SolveRowsInto implements BlockSolver.
func (f *sparseBFactorizer) SolveRowsInto(x []float64, nrhs int, scratch []float64) error {
	if !f.ok {
		return errNotFactored
	}
	f.chol.SolveRowsInto(x, nrhs, scratch)
	return nil
}
