package scenario

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"gridmtd/internal/core"
)

// The placement study answers "where should the D-FACTS devices go":
// greedy forward selection over a candidate branch pool, where a
// deployment's score is the largest subspace separation γ it can reach
// against the nominal configuration. The score of a subset is evaluated
// exactly — γ is polled at every corner of the subset's device box, which
// is where reactance perturbations empirically maximize γ (the same
// observation core.MaxGamma exploits) — and every probe shares one
// γ-evaluation engine, because H(x_nominal) does not depend on which
// branches carry devices. That sharing is what makes the study cheap: a
// round of the ieee57 search is hundreds of γ evaluations against one
// cached basis, not hundreds of engine constructions.
//
// The greedy ranking is deterministic: candidates are scored in pool
// order, ties keep the earliest candidate, and the corner poll keeps the
// lowest achieving corner mask — independent of Parallelism.

// placementState carries the study's shared engines and greedy chain.
type placementState struct {
	eval     *core.GammaEvaluator
	xNominal []float64
	pool     []int // candidate branch indices (0-based), evaluation order
	lo, hi   map[int]float64
	chosen   []int // greedily selected so far (0-based)
	baseCost float64
	baseOK   bool
}

// setupPlacement resolves the candidate pool, the per-branch device
// bounds and the shared engines.
func (st *execState) setupPlacement() error {
	spec := st.spec.Placement
	n := st.n
	var pool []int
	switch {
	case len(spec.Pool) == 0 && spec.AllBranches:
		for i := 0; i < n.L(); i++ {
			pool = append(pool, i)
		}
	case len(spec.Pool) == 0:
		pool = append(pool, n.DFACTSIndices()...)
	default:
		seen := make(map[int]bool)
		for _, b := range spec.Pool {
			if b < 1 || b > n.L() {
				return fmt.Errorf("scenario: placement pool branch %d out of range 1..%d", b, n.L())
			}
			if seen[b] {
				continue
			}
			seen[b] = true
			pool = append(pool, b-1)
		}
	}
	if len(pool) == 0 {
		return fmt.Errorf("scenario: placement pool is empty (case %s has no D-FACTS deployment to use as default)", n.Name)
	}
	etaMax := spec.EtaMax
	if etaMax <= 0 {
		etaMax = 0.5
	}
	lo, hi := make(map[int]float64, len(pool)), make(map[int]float64, len(pool))
	for _, i := range pool {
		br := n.Branches[i]
		if br.HasDFACTS {
			lo[i], hi[i] = br.XMin, br.XMax
		} else {
			lo[i], hi[i] = (1-etaMax)*br.X, (1+etaMax)*br.X
		}
	}
	eng, err := st.engineFor()
	if err != nil {
		return err
	}
	x := n.Reactances()
	st.pl = &placementState{
		eval:     core.NewGammaEvaluator(n, x),
		xNominal: x,
		pool:     pool,
		lo:       lo,
		hi:       hi,
	}
	if cost, err := eng.Cost(x); err == nil {
		st.pl.baseCost, st.pl.baseOK = cost, true
	}
	return nil
}

// subsetScore polls γ at every corner of the subset's device box (bit j of
// the mask sets subset[j] to its upper bound) and returns the best value
// with the lowest achieving mask.
func (pl *placementState) subsetScore(sess *core.GammaSession, subset []int, x []float64) (float64, int) {
	copy(x, pl.xNominal)
	bestG, bestMask := math.Inf(-1), -1
	total := 1 << len(subset)
	for mask := 0; mask < total; mask++ {
		for j, br := range subset {
			if mask&(1<<j) != 0 {
				x[br] = pl.hi[br]
			} else {
				x[br] = pl.lo[br]
			}
		}
		if g := sess.Gamma(x); g > bestG {
			bestG, bestMask = g, mask
		}
	}
	return bestG, bestMask
}

// placementRound adds the pool candidate whose addition to the chosen
// deployment reaches the highest γ, fanning the candidate probes across
// workers with a per-worker γ session.
func (st *execState) placementRound(round int) error {
	pl := st.pl
	var candidates []int
	inChosen := make(map[int]bool, len(pl.chosen))
	for _, c := range pl.chosen {
		inChosen[c] = true
	}
	for _, c := range pl.pool {
		if !inChosen[c] {
			candidates = append(candidates, c)
		}
	}
	if len(candidates) == 0 {
		return nil // pool exhausted before the requested deployment size
	}
	if len(pl.chosen)+1 > 12 {
		return fmt.Errorf("scenario: placement deployments beyond 12 devices make the corner poll inexact")
	}

	type probe struct {
		gamma float64
		mask  int
	}
	probes := make([]probe, len(candidates))
	workers := st.spec.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(candidates) {
		workers = len(candidates)
	}
	evalRange := func(from, to int) {
		sess := pl.eval.NewSession()
		x := make([]float64, len(pl.xNominal))
		subset := make([]int, len(pl.chosen)+1)
		copy(subset, pl.chosen)
		for i := from; i < to; i++ {
			subset[len(pl.chosen)] = candidates[i]
			g, mask := pl.subsetScore(sess, subset, x)
			probes[i] = probe{gamma: g, mask: mask}
		}
	}
	if workers <= 1 {
		evalRange(0, len(candidates))
	} else {
		var wg sync.WaitGroup
		per := (len(candidates) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			from, to := w*per, (w+1)*per
			if to > len(candidates) {
				to = len(candidates)
			}
			if from >= to {
				continue
			}
			wg.Add(1)
			go func(from, to int) {
				defer wg.Done()
				evalRange(from, to)
			}(from, to)
		}
		wg.Wait()
	}

	// Deterministic reduction: strict improvement in candidate (pool)
	// order keeps the earliest winner — the serial scan's choice.
	best := 0
	for i := 1; i < len(probes); i++ {
		if probes[i].gamma > probes[best].gamma {
			best = i
		}
	}
	pl.chosen = append(pl.chosen, candidates[best])

	// Evaluate the winning deployment's cost at its best corner through
	// the shared dispatch engine; under calibrated ratings the corner
	// dispatch can be infeasible, which the row reports as CostKnown=false.
	xBest := make([]float64, len(pl.xNominal))
	copy(xBest, pl.xNominal)
	for j, br := range pl.chosen {
		if probes[best].mask&(1<<j) != 0 {
			xBest[br] = pl.hi[br]
		} else {
			xBest[br] = pl.lo[br]
		}
	}
	row := Row{
		Gamma:      probes[best].gamma,
		ProbeGamma: probes[best].gamma,
		Devices:    make([]int, len(pl.chosen)),
		Reactances: xBest,
	}
	for i, br := range pl.chosen {
		row.Devices[i] = br + 1
	}
	sort.Ints(row.Devices)
	if st.pl.baseOK {
		if cost, err := st.eng.Cost(xBest); err == nil {
			row.CostIncrease = core.OperationalCost(pl.baseCost, cost)
			row.CostKnown = true
		}
	}
	st.res.Rows = append(st.res.Rows, row)
	return nil
}
