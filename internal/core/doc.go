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
// # Estimator caching
//
// Evaluating η'(δ) needs the post-MTD state estimator (a QR factorization
// of H'), which dominates large-case evaluation cost. EstimatorCache
// memoizes estimators per network with a bitwise key over the candidate
// reactance vector: two x_new vectors share an entry only when every
// float64 is identical, so a hit can never change a result. There is no
// staleness-based invalidation — networks resolved from the case registry
// are immutable, so an entry is invalidated only by LRU eviction (capacity
// pressure) or by keying against a different *grid.Network pointer, which
// bypasses the cache entirely. Misses build through se.Factory, which
// re-orthogonalizes only the D-FACTS-adjacent state columns and falls back
// to the full QR whenever its stable-column premise fails bitwise.
// EffectivenessConfig.Estimators opts an evaluation in; only fast
// (sparse-backend) attack sets consult it, keeping the small-case dense
// path byte-identical.
//
// # Solve memoization and restart screening
//
// The same bitwise-keying discipline governs the dispatch LP underneath
// the selection search. Sparse-backend opf engines memoize full solves
// per (loads, x) — the search revisits candidate points (initial-point
// trajectories, penalty re-evaluations), and a memo hit returns bitwise
// what the miss computed, so the hit/miss pattern cannot alter a
// result. On top of that, SelectMTD's multi-start runs with screened
// restarts on the sparse path: the deterministic initial points search
// first and fix a bar, and each random restart earns its Nelder-Mead
// budget only by beating that bar at its start point, cutting a cold
// ieee300 selection from 179 to 90 full dispatch solves (PERF.md).
// The bar is fixed at a stage barrier, so outcomes are identical for
// every worker count. Dense engines build no memo and dense call sites
// never screen; the golden suite is byte-identical by construction.
package core
