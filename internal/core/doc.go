// Package core implements the paper's contribution: selection and
// evaluation of moving-target-defense (MTD) reactance perturbations for
// power grid state estimation.
//
// The defender periodically re-dispatches the grid by solving the OPF; an
// attacker who learned the measurement matrix H_t of an earlier
// configuration injects stealthy attacks a = H_t·c. The MTD perturbs
// D-FACTS branch reactances so the new matrix H'_t' separates from H_t,
// exposing those attacks to the bad data detector.
//
// The package provides:
//
//   - Effectiveness: the paper's η'(δ) metric — the fraction of stealthy
//     pre-perturbation attacks whose detection probability under the new
//     configuration exceeds δ (Section V-A), evaluated analytically via the
//     noncentral-χ² residual distribution or by Monte Carlo, together with
//     the subspace separation γ(H_t, H'_t').
//   - SelectMTD: the constrained perturbation selection of problem (4) —
//     minimize OPF cost subject to γ(H_t, H'_t') ≥ γ_th — solved by
//     multi-start derivative-free search with a quadratic penalty, the
//     dispatch LP nested inside.
//   - MaxGamma: the pure-detection design (Section V) that maximizes
//     γ regardless of cost, used to probe the feasible γ range of the
//     D-FACTS hardware.
//   - RandomPerturbation: the random keyspace baseline of prior work
//     (Morrow et al., Davis et al., Rahman et al.) against which the paper
//     compares.
//   - OperationalCost: the paper's C_MTD metric (relative OPF cost
//     increase), and TuneGammaThreshold: the numerical procedure that picks
//     the smallest γ_th achieving a target effectiveness.
//
// # Attack residuals and the x_old evaluator
//
// Evaluating η'(δ) needs each attack's residual under H', the component of
// a = H_t·c outside Col(H'). On sparse-backend attack sets the analytic
// path takes it from the rank-|S| γ kernel: with b the angle differences
// of c across the s changed branches, the residual is ‖P·b‖ for an
// s×s-derived P, exact to about 1e-13 relative and built with no post-MTD
// estimator. Only attacks within 1e-9 of a decision threshold, candidates
// the kernel declines (an ill-conditioned T near γ = π/2), Monte Carlo,
// ReportProbs and the small-case dense path build the estimator (a QR
// factorization of H'), fresh for each evaluation;
// GlobalEstimatorCacheStats counts the builds on sparse-backend sets.
//
// The x_old side — one sparse Cholesky of H(x_old)ᵀH(x_old) and the
// kernel's Gram blocks over D ∪ F, formed by blocked solves, where D is
// the D-FACTS set and F the lines off it on which an explicit x_old
// differs from the case; no basis of H(x_old) unless the kernel declines
// — is prepared once per attack set, in SampleAttacks. A selection that also
// scores attacks shares that evaluator with its search
// (NewEnginesShared(set.Gamma(), dispatch)), so every selection, tuning
// run and day-sweep hour prepares x_old exactly once.
//
// # Solve memoization and restart screening
//
// The same bitwise-keying discipline governs the dispatch LP underneath
// the selection search. opf engines memoize full solves per (loads, x) — the search revisits candidate points (initial-point
// trajectories, penalty re-evaluations), and a memo hit returns bitwise
// what the miss computed, so the hit/miss pattern cannot alter a
// result. On top of that, SelectMTD's multi-start runs with screened
// restarts on the sparse path: the deterministic initial points search
// first and fix a bar, and each random restart earns its Nelder-Mead
// budget only by beating that bar at its start point, cutting a cold
// ieee300 selection from 179 to 90 full dispatch solves (PERF.md).
// The bar is fixed at a stage barrier, so outcomes are identical at
// any GOMAXPROCS (the worker count of every fan-out). Dense call sites
// never screen, and a dense memo hit is bitwise the solve it replaces,
// so the golden suite is byte-identical by construction.
//
// A selection runs on one dispatch engine. The operating measurements
// z_old that scale the attacks come from the engine the baseline OPF ran
// on (OperatingMeasurementsWith): at the baseline's optimum its Solve is
// a memo hit, and z is built from that Result's dispatch and verifying
// power flow, with the bits of a fresh engine plus a separate DC power
// flow. A cold ieee300 selection runs 88 full solves this way, ieee118
// 65.
package core
