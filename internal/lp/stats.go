package lp

import "sync/atomic"

// Process-wide revised-solver counters. Revised solvers live deep inside
// pooled engine workspaces and per-worker sessions, so production
// observability (the gridmtdd /v1/stats endpoint, mtdexp -v) cannot reach
// the per-solver RevisedStats; instead every RevisedSolver flushes its
// per-Solve counter deltas into these atomics, and GlobalRevisedStats
// aggregates them for the whole process. The flush is one batch of atomic
// adds per Solve call, so the hot pivot loops never touch shared memory.
type globalStats struct {
	solves, warm, cold, fallbacks      atomic.Int64
	primal, dual, etaUpdates, refacts  atomic.Int64
	sePivots, weightResets, boundFlips atomic.Int64
	prescreens, prescreenProbes        atomic.Int64
	infeasibles                        atomic.Int64
}

var global globalStats

// GlobalRevisedStats returns the process-wide revised-simplex counters
// accumulated since process start, across every RevisedSolver instance.
func GlobalRevisedStats() RevisedStats {
	return RevisedStats{
		Solves:           int(global.solves.Load()),
		WarmSolves:       int(global.warm.Load()),
		ColdSolves:       int(global.cold.Load()),
		Fallbacks:        int(global.fallbacks.Load()),
		PrimalPivots:     int(global.primal.Load()),
		DualPivots:       int(global.dual.Load()),
		EtaUpdates:       int(global.etaUpdates.Load()),
		Refactorizations: int(global.refacts.Load()),
		SEPivots:         int(global.sePivots.Load()),
		WeightResets:     int(global.weightResets.Load()),
		BoundFlips:       int(global.boundFlips.Load()),
		PrescreenHits:    int(global.prescreens.Load()),
		PrescreenProbes:  int(global.prescreenProbes.Load()),
		InfeasibleSolves: int(global.infeasibles.Load()),
	}
}

// Delta returns the counter increments between an earlier snapshot of the
// cumulative stats and this one (field-wise s − since). Tests and CI
// compare per-request deltas with it instead of racing absolute
// process-global values:
//
//	before := lp.GlobalRevisedStats()
//	... run one request ...
//	d := lp.GlobalRevisedStats().Delta(before)
func (s RevisedStats) Delta(since RevisedStats) RevisedStats {
	return RevisedStats{
		Solves:           s.Solves - since.Solves,
		WarmSolves:       s.WarmSolves - since.WarmSolves,
		ColdSolves:       s.ColdSolves - since.ColdSolves,
		Fallbacks:        s.Fallbacks - since.Fallbacks,
		PrimalPivots:     s.PrimalPivots - since.PrimalPivots,
		DualPivots:       s.DualPivots - since.DualPivots,
		EtaUpdates:       s.EtaUpdates - since.EtaUpdates,
		Refactorizations: s.Refactorizations - since.Refactorizations,
		SEPivots:         s.SEPivots - since.SEPivots,
		WeightResets:     s.WeightResets - since.WeightResets,
		BoundFlips:       s.BoundFlips - since.BoundFlips,
		PrescreenHits:    s.PrescreenHits - since.PrescreenHits,
		PrescreenProbes:  s.PrescreenProbes - since.PrescreenProbes,
		InfeasibleSolves: s.InfeasibleSolves - since.InfeasibleSolves,
	}
}

// flushStats adds the counters accumulated since the previous flush to the
// process-wide aggregate.
func (s *RevisedSolver) flushStats() {
	d, f := s.stats, s.flushed
	global.solves.Add(int64(d.Solves - f.Solves))
	global.warm.Add(int64(d.WarmSolves - f.WarmSolves))
	global.cold.Add(int64(d.ColdSolves - f.ColdSolves))
	global.fallbacks.Add(int64(d.Fallbacks - f.Fallbacks))
	global.primal.Add(int64(d.PrimalPivots - f.PrimalPivots))
	global.dual.Add(int64(d.DualPivots - f.DualPivots))
	global.etaUpdates.Add(int64(d.EtaUpdates - f.EtaUpdates))
	global.refacts.Add(int64(d.Refactorizations - f.Refactorizations))
	global.sePivots.Add(int64(d.SEPivots - f.SEPivots))
	global.weightResets.Add(int64(d.WeightResets - f.WeightResets))
	global.boundFlips.Add(int64(d.BoundFlips - f.BoundFlips))
	global.prescreens.Add(int64(d.PrescreenHits - f.PrescreenHits))
	global.prescreenProbes.Add(int64(d.PrescreenProbes - f.PrescreenProbes))
	global.infeasibles.Add(int64(d.InfeasibleSolves - f.InfeasibleSolves))
	s.flushed = d
}
