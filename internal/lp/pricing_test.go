package lp

import (
	"math/rand"
	"sync"
	"testing"
)

// TestPricingRulesAgreeRandom is the pricing-invariance property on random
// bounded LPs: steepest-edge and Bland dual pricing pick different
// pivot sequences but must land on the same optimum as the flat tableau
// solver (1e-9), with identical feasibility verdicts. The warm re-solve
// of each problem from its captured basis keeps every rule exercising the
// eta-update path.
func TestPricingRulesAgreeRandom(t *testing.T) {
	rules := []struct {
		name string
		rule PricingRule
	}{
		{"steepest-edge", PriceSteepestEdge},
		{"bland", PriceBland},
	}
	solvers := make([]*RevisedSolver, len(rules))
	for i, r := range rules {
		solvers[i] = NewRevisedSolver()
		solvers[i].SetPricing(r.rule)
	}
	rng := rand.New(rand.NewSource(31))
	solved := 0
	for trial := 0; trial < 150; trial++ {
		p := randomBoundedLP(rng, 3+rng.Intn(8), 1+rng.Intn(10))
		ref, refErr := Solve(p)
		for i, r := range rules {
			got, gotErr := solvers[i].Solve(p, nil)
			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("trial %d (%s): flat err %v, revised err %v", trial, r.name, refErr, gotErr)
			}
			if refErr != nil {
				continue
			}
			objectivesAgree(t, r.name, ref.Objective, got.Objective)
			// Warm re-solve under the same rule from the optimal basis
			// just captured: the answer must agree again.
			again, err := solvers[i].Solve(p, solvers[i].CaptureBasis())
			if err != nil {
				t.Fatalf("trial %d (%s) warm: %v", trial, r.name, err)
			}
			objectivesAgree(t, r.name+" warm", ref.Objective, again.Objective)
		}
		if refErr == nil {
			solved++
		}
	}
	if solved < 50 {
		t.Fatalf("only %d/150 random LPs were feasible; generator too aggressive", solved)
	}
	// Counter hygiene: the steepest-edge solver must have priced with
	// weights (and reset them at refactorizations); the Bland solver must
	// not have touched the SE counters.
	se := solvers[0].Stats()
	if se.SEPivots == 0 || se.WeightResets == 0 {
		t.Fatalf("steepest-edge solver never used weighted pricing: %+v", se)
	}
	for i := 1; i < len(rules); i++ {
		if st := solvers[i].Stats(); st.SEPivots != 0 {
			t.Fatalf("%s solver recorded steepest-edge pivots: %+v", rules[i].name, st)
		}
	}
}

// TestGlobalStatsUnderParallelSolves hammers the process-wide counters from
// concurrent solvers (the planner's multi-start pattern: one solver per
// goroutine, shared atomic stats) and checks the aggregate adds up exactly.
// Run with -race to verify the counter path is synchronization-clean.
func TestGlobalStatsUnderParallelSolves(t *testing.T) {
	const workers = 8
	const perWorker = 25
	before := GlobalRevisedStats()
	var wg sync.WaitGroup
	locals := make([]RevisedStats, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			rs := NewRevisedSolver()
			rs.SetPricing(PricingRule(w % 2)) // mix SE/Bland across workers
			for trial := 0; trial < perWorker; trial++ {
				p := randomBoundedLP(rng, 3+rng.Intn(6), 1+rng.Intn(8))
				_, _ = rs.Solve(p, rs.CaptureBasis())
				// Interleave snapshot reads with the writes.
				_ = GlobalRevisedStats()
			}
			locals[w] = rs.Stats()
		}(w)
	}
	wg.Wait()
	after := GlobalRevisedStats()
	var want RevisedStats
	for _, st := range locals {
		want.Solves += st.Solves
		want.DualPivots += st.DualPivots
		want.SEPivots += st.SEPivots
		want.BoundFlips += st.BoundFlips
		want.WeightResets += st.WeightResets
		want.Refactorizations += st.Refactorizations
	}
	if got := after.Solves - before.Solves; got != want.Solves {
		t.Fatalf("global Solves delta %d != per-solver sum %d", got, want.Solves)
	}
	if got := after.DualPivots - before.DualPivots; got != want.DualPivots {
		t.Fatalf("global DualPivots delta %d != per-solver sum %d", got, want.DualPivots)
	}
	if got := after.SEPivots - before.SEPivots; got != want.SEPivots {
		t.Fatalf("global SEPivots delta %d != per-solver sum %d", got, want.SEPivots)
	}
	if got := after.BoundFlips - before.BoundFlips; got != want.BoundFlips {
		t.Fatalf("global BoundFlips delta %d != per-solver sum %d", got, want.BoundFlips)
	}
	if got := after.WeightResets - before.WeightResets; got != want.WeightResets {
		t.Fatalf("global WeightResets delta %d != per-solver sum %d", got, want.WeightResets)
	}
}
