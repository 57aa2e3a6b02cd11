// Package sim runs the closed-loop defender/attacker simulations of the
// paper's Section VII-C: a day-long hourly loop in which the operator
// re-solves the OPF as the load moves, tunes and applies an MTD reactance
// perturbation each hour against an attacker whose knowledge of the
// measurement matrix is one hour stale, and accounts for the MTD's
// operational cost. It also contains the attacker-learning model
// (subspace estimation from eavesdropped measurements, per Kim, Tong &
// Thomas) used to justify the MTD update interval.
package sim

import (
	"errors"
	"fmt"

	"gridmtd/internal/core"
	"gridmtd/internal/grid"
	"gridmtd/internal/opf"
	"gridmtd/internal/subspace"
)

// HourResult records one hour of the daily simulation (one point of the
// paper's Figs. 10 and 11).
type HourResult struct {
	// Hour indexes the load profile (0 = 1 AM ... 23 = 12 AM).
	Hour int
	// TotalLoadMW is the system demand this hour.
	TotalLoadMW float64
	// BaselineCost is C_OPF,t' — the no-MTD problem-(1) cost.
	BaselineCost float64
	// MTDCost is C'_OPF,t' — the cost under the selected MTD perturbation.
	MTDCost float64
	// CostIncrease is the paper's C_MTD (fraction, e.g. 0.023 = 2.3%).
	CostIncrease float64
	// GammaThreshold is the tuned γ_th used this hour.
	GammaThreshold float64
	// GammaOldMTD is γ(H_t, H'_t'): attacker knowledge vs applied MTD.
	GammaOldMTD float64
	// GammaOldNew is γ(H_t, H_t'): the natural hour-over-hour drift
	// without MTD (Fig. 11 shows it is ≈ 0).
	GammaOldNew float64
	// GammaNewMTD is γ(H_t', H'_t'): no-MTD-now vs MTD-now (Fig. 11 shows
	// it tracks GammaOldMTD, validating the paper's approximation).
	GammaNewMTD float64
	// Eta is the achieved effectiveness η'(δ*) of the applied MTD.
	Eta float64
}

// DayConfig configures RunDay.
type DayConfig struct {
	// Net is the base network; its loads define the profile's reference
	// level and are scaled by LoadFactors each hour.
	Net *grid.Network
	// LoadFactors multiply the base loads hour by hour.
	LoadFactors []float64
	// Tune configures the per-hour γ_th tuning (target δ*, target η',
	// inner search budgets). Its Select.BaselineCost is overridden hourly.
	Tune core.TuneConfig
	// OPFStarts is the multi-start budget of the hourly no-MTD OPF
	// (default 8).
	OPFStarts int
	// Warmup runs the first profile hour once, unrecorded, before the
	// simulated day so hour 0 starts from a realistic installed
	// configuration and stale attacker knowledge (the trace begins
	// mid-operation, not at commissioning).
	Warmup bool
	// PersistReactances starts each hour's no-MTD OPF from the previously
	// installed (MTD-perturbed) reactances instead of the case defaults.
	// Physically realistic — the D-FACTS devices stay where they were —
	// and it roughly doubles the reachable γ around the clock, but it
	// makes consecutive no-MTD configurations alternate between device
	// corners, so the natural drift γ(H_t, H_t') is no longer ≈ 0 as the
	// paper's Fig. 11 shows. Off by default (the paper's apparent
	// protocol); see EXPERIMENTS.md for the ablation.
	PersistReactances bool
	// Seed seeds the hourly solvers.
	Seed int64
}

// RunDay executes the daily loop. For each hour h it:
//  1. scales the loads and solves problem (1) for the no-MTD reactances
//     x_t' and reference cost C_OPF,t';
//  2. takes the attacker's knowledge H_t from hour h−1's no-MTD
//     configuration (one-hour-stale knowledge, Section VII-C);
//  3. tunes γ_th so the selected MTD achieves the target effectiveness and
//     solves problem (4);
//  4. records costs and the three principal angles of Fig. 11.
//
// Hour 0 uses its own configuration as the attacker knowledge (γ = 0
// drift), matching the paper's first sample.
//
// One work network and one dispatch-OPF engine serve the whole day: the
// engine reads loads fresh on every solve and takes the reactances as an
// explicit argument, so mutating the work network's loads (and, under
// PersistReactances, its installed reactances) hour by hour performs
// exactly the arithmetic the historical per-hour engine construction
// performed — on the dense path the hourly records are bitwise identical —
// while the LP skeleton, the factorizer workspaces and (on the sparse
// path) the warm simplex bases are built once per day instead of once per
// hour. Only the γ engine is rebuilt hourly, because it is keyed by the
// attacker's (hourly-moving) knowledge x_t.
func RunDay(cfg DayConfig) ([]HourResult, error) {
	if cfg.Net == nil {
		return nil, errors.New("sim: nil network")
	}
	if len(cfg.LoadFactors) == 0 {
		return nil, errors.New("sim: empty load profile")
	}
	if cfg.OPFStarts <= 0 {
		cfg.OPFStarts = 8
	}
	baseLoads := cfg.Net.LoadsMW()

	// Hour h-1 state: the attacker's knowledge (no-MTD configuration) and
	// the physical reactance setting the devices were left at (the MTD
	// perturbation stays in effect until the next update, so each hour's
	// OPF re-optimizes from there rather than from the case defaults).
	var prevX []float64
	var prevZ []float64
	var installedX []float64

	factors := cfg.LoadFactors
	firstRecorded := 0
	if cfg.Warmup {
		factors = append([]float64{cfg.LoadFactors[0]}, cfg.LoadFactors...)
		firstRecorded = 1
	}

	net := cfg.Net.Clone()
	engine, err := opf.NewDispatchEngine(net)
	if err != nil {
		return nil, fmt.Errorf("sim: dispatch engine: %w", err)
	}
	loads := make([]float64, len(baseLoads))

	results := make([]HourResult, 0, len(factors))
	for h, factor := range factors {
		for i, l := range baseLoads {
			loads[i] = l * factor
		}
		net.SetLoadsMW(loads)
		startX := []float64(nil) // nominal reactances
		if cfg.PersistReactances && installedX != nil {
			net.SetReactances(installedX)
			startX = installedX
		}

		// Step 1: no-MTD OPF (problem (1)).
		noMTD, err := opf.SolveDFACTSEngine(engine, opf.DFACTSConfig{Starts: cfg.OPFStarts, Seed: cfg.Seed + int64(h), Initial: startX})
		if err != nil {
			return nil, fmt.Errorf("sim: hour %d no-MTD OPF: %w", h, err)
		}
		zNow, err := core.OperatingMeasurements(net, noMTD.Reactances)
		if err != nil {
			return nil, fmt.Errorf("sim: hour %d operating point: %w", h, err)
		}

		// Step 2: attacker knowledge = previous hour's configuration.
		xOld, zOld := prevX, prevZ
		if xOld == nil {
			xOld, zOld = noMTD.Reactances, zNow
		}

		// Step 3: tune γ_th and select the MTD.
		tuneCfg := cfg.Tune
		tuneCfg.Select.BaselineCost = noMTD.CostPerHour
		tuneCfg.Select.Seed = cfg.Seed + int64(h)
		tuneCfg.Effectiveness.Seed = cfg.Seed + int64(h)
		sel, eff, err := core.TuneGammaThresholdWith(core.NewEnginesShared(net, xOld, engine), net, xOld, zOld, tuneCfg)
		if err != nil {
			return nil, fmt.Errorf("sim: hour %d MTD selection: %w", h, err)
		}

		// Step 4: metrics (warm-up hours advance state but go unrecorded).
		if h < firstRecorded {
			prevX, prevZ = noMTD.Reactances, zNow
			installedX = sel.Reactances
			continue
		}
		hOld := net.MeasurementMatrix(xOld)
		hNow := net.MeasurementMatrix(noMTD.Reactances)
		hMTD := net.MeasurementMatrix(sel.Reactances)
		results = append(results, HourResult{
			Hour:           h - firstRecorded,
			TotalLoadMW:    net.TotalLoadMW(),
			BaselineCost:   noMTD.CostPerHour,
			MTDCost:        sel.OPF.CostPerHour,
			CostIncrease:   core.OperationalCost(noMTD.CostPerHour, sel.OPF.CostPerHour),
			GammaThreshold: sel.Gamma,
			GammaOldMTD:    subspace.Gamma(hOld, hMTD),
			GammaOldNew:    subspace.Gamma(hOld, hNow),
			GammaNewMTD:    subspace.Gamma(hNow, hMTD),
			Eta:            eff.Eta[0],
		})

		prevX, prevZ = noMTD.Reactances, zNow
		installedX = sel.Reactances
	}
	return results, nil
}
