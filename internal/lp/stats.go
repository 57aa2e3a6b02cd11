package lp

import "gridmtd/internal/metrics"

// global is the process-wide sum of every RevisedSolver's counters.
// Revised solvers live deep inside pooled engine workspaces and per-worker
// sessions, so production observability (the gridmtdd /v1/stats endpoint,
// mtdexp -v) cannot reach the per-solver RevisedStats; instead every
// RevisedSolver adds its per-Solve counter delta here, one batch per
// Solve call, so the hot pivot loop never touches shared memory.
var global metrics.Sum[RevisedStats]

// GlobalRevisedStats returns the process-wide revised-simplex counters
// accumulated since process start, across every RevisedSolver instance.
func GlobalRevisedStats() RevisedStats { return global.Load() }

// flushStats adds the counters accumulated since the previous flush to the
// process-wide aggregate.
func (s *RevisedSolver) flushStats() {
	global.Add(metrics.Delta(s.stats, s.flushed))
	s.flushed = s.stats
}
