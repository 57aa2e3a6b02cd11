// Package grid models the power network studied by the paper: buses,
// transmission branches (optionally equipped with D-FACTS devices that let
// the operator perturb branch reactance), and generators with linear costs.
// It builds the DC power-flow matrices the rest of the system consumes: the
// branch-bus incidence matrix A, the susceptance matrices D and B = A·D·Aᵀ,
// the (slack-reduced) measurement matrix H = [B; D·Aᵀ; −D·Aᵀ] of the state
// estimator, and the PTDF matrix used by the LP formulation of the DC OPF.
//
// # Case registry
//
// Test systems live as pure data in the internal/grid/cases subpackage and
// are served through Cases, CaseNames and CaseByName (plus the historical
// Case4GS/CaseIEEE14/... constructors). Five cases are embedded: the
// MATPOWER 4-bus case (case4gs) of the paper's motivating example, the
// IEEE 14-bus case with the paper's Table-IV economics, the IEEE 30-bus
// case of the scalability experiment, and — beyond the paper's own sizes —
// the IEEE 57- and 118-bus systems with calibrated line ratings (see
// cmd/calibcase).
//
// # Factorization backends
//
// Every solve against the slack-reduced susceptance matrix B_r(x) — the
// DC power flow, the PTDF build of the dispatch OPF — goes through the
// pluggable BFactorizer seam. The dense backend performs exactly the
// historical LU operations, bit for bit, and serves the paper's
// sub-SparseThreshold cases so their fixed-seed experiment outputs stay
// byte-identical; the sparse backend (CSC assembly, fill-reducing sparse
// Cholesky, triangular solves from internal/mat) serves the 57/118-bus
// cases, where it factors and builds PTDFs up to 10× faster (PERF.md).
package grid

import (
	"errors"
	"fmt"
	"math"
)

// Bus is a network node.
type Bus struct {
	// Index is the 1-based bus number as in the case file.
	Index int
	// LoadMW is the real power demand at the bus in MW.
	LoadMW float64
}

// Branch is a transmission line between two buses.
type Branch struct {
	// From and To are 1-based bus indices; positive flow runs From -> To.
	From, To int
	// X is the branch reactance in per-unit.
	X float64
	// LimitMW is the thermal flow limit in MW; +Inf means unlimited.
	LimitMW float64
	// HasDFACTS marks branches whose reactance the defender can perturb.
	HasDFACTS bool
	// XMin and XMax bound the reactance achievable by the D-FACTS device.
	// For branches without D-FACTS they both equal X.
	XMin, XMax float64
}

// Generator is a dispatchable source with a linear cost curve.
type Generator struct {
	// Bus is the 1-based index of the bus the generator connects to.
	Bus int
	// CostPerMWh is the linear generation cost coefficient c_i in $/MWh.
	CostPerMWh float64
	// MinMW and MaxMW bound the dispatch.
	MinMW, MaxMW float64
}

// Network is a complete power system model.
type Network struct {
	// Name identifies the case (e.g. "case4gs").
	Name string
	// BaseMVA is the per-unit power base.
	BaseMVA float64
	// SlackBus is the 1-based reference bus whose voltage angle is fixed
	// to zero.
	SlackBus int
	Buses    []Bus
	Branches []Branch
	Gens     []Generator
}

// N returns the number of buses.
func (n *Network) N() int { return len(n.Buses) }

// L returns the number of branches.
func (n *Network) L() int { return len(n.Branches) }

// M returns the number of sensor measurements: one injection per bus plus
// forward and reverse flow measurements per branch (M = N + 2L).
func (n *Network) M() int { return n.N() + 2*n.L() }

// Clone returns a deep copy of the network.
func (n *Network) Clone() *Network {
	out := &Network{
		Name:     n.Name,
		BaseMVA:  n.BaseMVA,
		SlackBus: n.SlackBus,
		Buses:    append([]Bus(nil), n.Buses...),
		Branches: append([]Branch(nil), n.Branches...),
		Gens:     append([]Generator(nil), n.Gens...),
	}
	return out
}

// Validate checks structural consistency: positive base power, valid bus
// indexing, positive reactances, consistent D-FACTS ranges, valid generator
// buses and bounds, uniqueness of branch endpoints, and network
// connectivity. Islands are rejected here with a descriptive error because
// they otherwise surface only as a singular susceptance matrix deep inside
// a factorization. Duplicate branches are rejected as a lint-style guard:
// the solvers key everything by branch index and would handle parallel
// circuits fine, but a repeated bus pair is almost always a transcription
// mistake, and this repo's case convention is a simple graph — the
// embedded 57-/118-bus cases merge parallel circuits into one equivalent
// branch (x_eq = x1·x2/(x1+x2)); do the same when importing raw case data.
func (n *Network) Validate() error {
	if n.BaseMVA <= 0 {
		return errors.New("grid: BaseMVA must be positive")
	}
	if len(n.Buses) == 0 {
		return errors.New("grid: no buses")
	}
	for i, b := range n.Buses {
		if b.Index != i+1 {
			return fmt.Errorf("grid: bus %d has index %d, want %d (buses must be numbered 1..N in order)", i, b.Index, i+1)
		}
	}
	if n.SlackBus < 1 || n.SlackBus > len(n.Buses) {
		return fmt.Errorf("grid: slack bus %d out of range", n.SlackBus)
	}
	if len(n.Branches) == 0 {
		return errors.New("grid: no branches")
	}
	seenPair := make(map[[2]int]int, len(n.Branches))
	for i, br := range n.Branches {
		if br.From < 1 || br.From > len(n.Buses) || br.To < 1 || br.To > len(n.Buses) {
			return fmt.Errorf("grid: branch %d endpoints (%d, %d) out of range", i+1, br.From, br.To)
		}
		if br.From == br.To {
			return fmt.Errorf("grid: branch %d is a self-loop at bus %d", i+1, br.From)
		}
		pair := [2]int{br.From, br.To}
		if pair[0] > pair[1] {
			pair[0], pair[1] = pair[1], pair[0]
		}
		if first, dup := seenPair[pair]; dup {
			return fmt.Errorf("grid: branches %d and %d both connect buses %d-%d; merge parallel circuits into one equivalent branch (x_eq = x1*x2/(x1+x2))", first, i+1, pair[0], pair[1])
		}
		seenPair[pair] = i + 1
		if br.X <= 0 {
			return fmt.Errorf("grid: branch %d has non-positive reactance %g", i+1, br.X)
		}
		if br.LimitMW <= 0 {
			return fmt.Errorf("grid: branch %d has non-positive flow limit %g (use +Inf for unlimited)", i+1, br.LimitMW)
		}
		if br.XMin <= 0 || br.XMax < br.XMin {
			return fmt.Errorf("grid: branch %d has invalid reactance range [%g, %g]", i+1, br.XMin, br.XMax)
		}
		if br.X < br.XMin-1e-12 || br.X > br.XMax+1e-12 {
			return fmt.Errorf("grid: branch %d reactance %g outside range [%g, %g]", i+1, br.X, br.XMin, br.XMax)
		}
		if !br.HasDFACTS && br.XMax != br.XMin {
			return fmt.Errorf("grid: branch %d has a reactance range but no D-FACTS device", i+1)
		}
	}
	for i, g := range n.Gens {
		if g.Bus < 1 || g.Bus > len(n.Buses) {
			return fmt.Errorf("grid: generator %d bus %d out of range", i, g.Bus)
		}
		if g.MinMW < 0 || g.MaxMW < g.MinMW {
			return fmt.Errorf("grid: generator %d has invalid dispatch range [%g, %g]", i, g.MinMW, g.MaxMW)
		}
	}
	if unreachable := n.unreachableBuses(); len(unreachable) > 0 {
		preview := unreachable
		const maxListed = 8
		suffix := ""
		if len(preview) > maxListed {
			preview = preview[:maxListed]
			suffix = ", ..."
		}
		return fmt.Errorf("grid: network is islanded: %d of %d buses unreachable from bus 1 (buses %s%s); the susceptance matrix of an islanded network is singular",
			len(unreachable), len(n.Buses), joinInts(preview), suffix)
	}
	return nil
}

// unreachableBuses returns the 1-based indices of buses the branch graph
// does not connect to bus 1, in ascending order (empty for a connected
// network).
func (n *Network) unreachableBuses() []int {
	adj := make([][]int, len(n.Buses)+1)
	for _, br := range n.Branches {
		adj[br.From] = append(adj[br.From], br.To)
		adj[br.To] = append(adj[br.To], br.From)
	}
	seen := make([]bool, len(n.Buses)+1)
	stack := []int{1}
	seen[1] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	var out []int
	for b := 1; b <= len(n.Buses); b++ {
		if !seen[b] {
			out = append(out, b)
		}
	}
	return out
}

// joinInts renders a small int list as "a, b, c".
func joinInts(v []int) string {
	s := ""
	for i, x := range v {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprint(x)
	}
	return s
}

// Reactances returns the current branch reactance vector (per-unit).
func (n *Network) Reactances() []float64 {
	x := make([]float64, len(n.Branches))
	for i, br := range n.Branches {
		x[i] = br.X
	}
	return x
}

// WithReactances returns a clone of the network with the given full branch
// reactance vector. It panics if the length does not match.
func (n *Network) WithReactances(x []float64) *Network {
	if len(x) != len(n.Branches) {
		panic("grid: reactance vector length mismatch")
	}
	out := n.Clone()
	for i := range out.Branches {
		out.Branches[i].X = x[i]
	}
	return out
}

// LoadsMW returns the bus load vector in MW.
func (n *Network) LoadsMW() []float64 {
	l := make([]float64, len(n.Buses))
	for i, b := range n.Buses {
		l[i] = b.LoadMW
	}
	return l
}

// SetLoadsMW replaces the bus load vector in place. It panics if the length
// does not match.
func (n *Network) SetLoadsMW(l []float64) {
	if len(l) != len(n.Buses) {
		panic("grid: load vector length mismatch")
	}
	for i := range n.Buses {
		n.Buses[i].LoadMW = l[i]
	}
}

// ScaleLoads multiplies every bus load by factor (used to drive the network
// with a load trace).
func (n *Network) ScaleLoads(factor float64) {
	for i := range n.Buses {
		n.Buses[i].LoadMW *= factor
	}
}

// TotalLoadMW returns the system demand in MW.
func (n *Network) TotalLoadMW() float64 {
	var s float64
	for _, b := range n.Buses {
		s += b.LoadMW
	}
	return s
}

// TotalGenCapacityMW returns the aggregate generator capacity in MW.
func (n *Network) TotalGenCapacityMW() float64 {
	var s float64
	for _, g := range n.Gens {
		s += g.MaxMW
	}
	return s
}

// DFACTSIndices returns the 0-based indices of branches with D-FACTS
// devices.
func (n *Network) DFACTSIndices() []int {
	var idx []int
	for i, br := range n.Branches {
		if br.HasDFACTS {
			idx = append(idx, i)
		}
	}
	return idx
}

// DFACTSBounds returns the reactance bounds for the D-FACTS branches, in
// the order of DFACTSIndices.
func (n *Network) DFACTSBounds() (lo, hi []float64) {
	for _, i := range n.DFACTSIndices() {
		lo = append(lo, n.Branches[i].XMin)
		hi = append(hi, n.Branches[i].XMax)
	}
	return lo, hi
}

// DFACTSSetting extracts the reactances of the D-FACTS branches from a full
// reactance vector.
func (n *Network) DFACTSSetting(x []float64) []float64 {
	if len(x) != len(n.Branches) {
		panic("grid: reactance vector length mismatch")
	}
	idx := n.DFACTSIndices()
	out := make([]float64, len(idx))
	for k, i := range idx {
		out[k] = x[i]
	}
	return out
}

// ExpandDFACTS builds a full reactance vector from the current network
// reactances with the D-FACTS branches overridden by xD (ordered as
// DFACTSIndices).
func (n *Network) ExpandDFACTS(xD []float64) []float64 {
	return n.ExpandDFACTSInto(xD, make([]float64, len(n.Branches)))
}

// ExpandDFACTSInto is ExpandDFACTS writing into a caller-provided full
// reactance vector, allocating nothing. dst must have length L.
func (n *Network) ExpandDFACTSInto(xD, dst []float64) []float64 {
	if len(dst) != len(n.Branches) {
		panic("grid: reactance vector length mismatch")
	}
	k := 0
	for i, br := range n.Branches {
		if br.HasDFACTS {
			if k >= len(xD) {
				panic("grid: D-FACTS vector length mismatch")
			}
			dst[i] = xD[k]
			k++
		} else {
			dst[i] = br.X
		}
	}
	if k != len(xD) {
		panic("grid: D-FACTS vector length mismatch")
	}
	return dst
}

// GenCosts returns the linear cost coefficients of the generators.
func (n *Network) GenCosts() []float64 {
	c := make([]float64, len(n.Gens))
	for i, g := range n.Gens {
		c[i] = g.CostPerMWh
	}
	return c
}

// GenBounds returns the dispatch bounds of the generators in MW.
func (n *Network) GenBounds() (lo, hi []float64) {
	lo = make([]float64, len(n.Gens))
	hi = make([]float64, len(n.Gens))
	for i, g := range n.Gens {
		lo[i] = g.MinMW
		hi[i] = g.MaxMW
	}
	return lo, hi
}

// Unlimited is a convenience flow limit for branches without a thermal
// constraint.
var Unlimited = math.Inf(1)
