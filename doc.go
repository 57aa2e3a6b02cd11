// Package gridmtd is a reproduction of "Cost-Benefit Analysis of
// Moving-Target Defense in Power Grids" (Lakshminarayana & Yau, IEEE/IFIP
// DSN 2018) as a reusable Go library.
//
// The library models a DC power grid with D-FACTS-equipped transmission
// lines, runs state estimation with a χ²-calibrated bad data detector
// (BDD), crafts the stealthy false-data-injection (FDI) attacks the BDD
// cannot see, and implements the paper's moving-target defense (MTD):
// perturb branch reactances so that attacks crafted against the old
// measurement matrix become detectable, while accounting for the
// perturbation's operational (OPF) cost.
//
// # Quick start
//
//	n := gridmtd.NewIEEE14()
//	pre, _ := gridmtd.SolveOPFWithDFACTS(n, gridmtd.DFACTSOPFConfig{Starts: 8})
//	z, _ := gridmtd.OperatingMeasurements(n, pre.Reactances)
//
//	// The attacker learned H(pre.Reactances) and crafts stealthy attacks.
//	// The defender selects a cost-minimal perturbation with γ >= 0.3:
//	sel, _ := gridmtd.SelectMTD(n, pre.Reactances, gridmtd.MTDSelectConfig{
//		GammaThreshold: 0.3,
//	})
//	eff, _ := gridmtd.Effectiveness(n, pre.Reactances, sel.Reactances, z,
//		gridmtd.EffectivenessConfig{})
//	fmt.Printf("γ=%.2f, η'(0.95)=%.2f, cost +%.2f%%\n",
//		eff.Gamma, eff.Eta[3], 100*sel.CostIncrease)
//
// Five IEEE cases are embedded and served through a registry
// (CaseByName/Cases): the paper's 4-, 14- and 30-bus systems, 57- and
// 118-bus systems with calibrated ratings, and a 300-bus scaling case.
// Everything — the runnable programs, cmd/mtdexp's case-generic
// experiments, cmd/mtdscan's frontier sweeps — takes a -case flag; on the
// ≥57-bus cases the susceptance solves route transparently through a
// sparse Cholesky backend (PERF.md records the crossover).
//
// # Scenarios and the planner service
//
// Repeated-evaluation studies are described declaratively as a Scenario
// (case × loading × attack model × sweep × budgets × seed) and executed
// by a runner that shares one dispatch-OPF engine per case across every
// evaluation unit:
//
//	res, _ := gridmtd.RunScenario(gridmtd.Scenario{
//		Kind:         gridmtd.ScenarioGammaSweep,
//		Case:         "ieee57",
//		GammaGrid:    []float64{0.05, 0.10, 0.15},
//		SelectStarts: 6, Seed: 1, OPFStarts: 6, OPFSeed: 1,
//	})
//
// The experiments, the example programs and cmd/mtdscan all run on this
// layer (dense-path outputs are bitwise identical to the historical
// bespoke loops, and identical for every worker count). Long-running
// deployments use the Planner — an LRU of factorized cases plus a memo
// of finished responses — either in-process (NewPlanner) or over HTTP
// via the cmd/gridmtdd daemon (select / γ / day-sweep / placement
// endpoints; a repeated request is a cache lookup). The placement
// scenario (ScenarioPlacement) greedily searches D-FACTS device subsets
// for the deployment maximizing the reachable γ.
//
// At fleet scale the daemon adds three layers in front of the searches
// themselves: identical in-flight requests coalesce into one computation
// (single-flight; joiners are counted separately from memo hits),
// computations pass a bounded admission queue (-max-inflight /
// -queue-depth; past the queue the daemon sheds 429 + Retry-After rather
// than collapsing), and finished responses persist to a content-addressed
// disk cache (-disk-cache) keyed on the request's bitwise memo key plus
// the case-registry hash, so a restarted daemon serves previously
// computed selections in microseconds instead of re-solving. A
// -route shard1:port,shard2:port front rendezvous-hashes (case, scale)
// over replicas and aggregates their /v1/stats; cmd/gridmtdload drives a
// deterministic mixed workload against either form and gates on SLOs
// (latency percentiles, shed rate, 5xx budget) for CI.
//
// # γ evaluation
//
// γ evaluation — the largest principal angle between measurement column
// spaces, the hot path of every selection search — has one exact path.
// Below the 50-bus sparse threshold (or under -backend dense) it is
// bitwise the reference principal-angle pipeline. Above it, a candidate
// that changes s branches (the D-FACTS lines) is a rank-s update of
// H(x_old), and γ comes from an s×s eigenproblem over the cached x_old
// basis instead of a fresh Gram-Schmidt of the candidate; it falls back
// to the multi-accumulator Gram-Schmidt when the update cannot certify its
// value (1e-9 agreement either way). The same s×s blocks score each
// attack a = H_old·c exactly: its residual under H(x′) is ‖P·b‖ for the
// angle differences b of c across the changed branches, so the η′(δ)
// evaluation builds no post-MTD estimator, re-checking with one only the
// attacks within 1e-9 of a detection threshold. A planner request's
// gamma_backend and Scenario.GammaBackend still accept "auto", "exact",
// "sparse" and "sketch", all as names of this one path.
//
// Underneath, the dispatch LP runs a bounded-variable revised simplex
// with product-form (eta-file) factorization updates, a deterministic
// crash basis when no warm basis exists, and certified dual-simplex
// infeasibility detection; lp.GlobalRevisedStats counters surface
// through the daemon's /v1/stats and mtdexp -v. PERF.md records the
// resulting cold-selection latencies (~60 ms at 118 buses, sub-second
// at 300).
//
// On the sparse path the search also avoids repeating work it has
// already done: dispatch engines memoize full solves under a bitwise
// (loads, x) key — a hit returns bitwise what a fresh solve computes,
// deterministic infeasibility errors included — the LP solver recycles
// Farkas infeasibility certificates to reject doomed candidates before
// pivoting (every screened rejection revalidates the certificate
// exactly against the candidate's data), and multi-start restarts are
// screened against the deterministic trajectories' optimum so a losing
// restart costs one evaluation instead of a local-search budget.
// Every dispatch LP the search does evaluate is an exact solve through
// the memo. All of these are invisible to the dense/golden path and
// their traffic is reported by GlobalSolveCacheStats, the lp counters
// and /v1/stats (which supports ?mark=/?since= named snapshots for
// per-request deltas).
//
// The runnable programs under examples/ walk through the full defender
// workflow, the cost-effectiveness tradeoff, a 24-hour operating day and
// the attacker's learning process; cmd/mtdexp regenerates every table and
// figure of the paper (see EXPERIMENTS.md for the comparison).
//
// # Architecture
//
// The facade re-exports the building blocks implemented under internal/:
// dense and sparse linear algebra (internal/mat), χ² statistics
// (internal/stat), an LP simplex solver (internal/lp), derivative-free
// optimizers (internal/optimize), the grid model, case registry and
// factorization backends (internal/grid, internal/grid/cases), DC power
// flow (internal/dcflow), state estimation and BDD (internal/se), FDI
// attacks (internal/attack), principal angles (internal/subspace), DC
// OPF (internal/opf), the MTD algorithms (internal/core), load profiles
// (internal/loadprofile), the daily/learning simulations (internal/sim),
// the scenario layer (internal/scenario) and the planner service
// (internal/planner, served by cmd/gridmtdd).
package gridmtd
