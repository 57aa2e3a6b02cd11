// Package impact quantifies the damage of a successful (undetected) FDI
// attack, making the paper's Section VII-D insurance argument executable.
// The paper cites load-redistribution attack studies (Yuan et al.) showing
// that a BDD-bypassing attack can raise the operating cost by up to ~28%
// on the 14-bus system; this package implements that attack class so the
// MTD premium can be compared against the damage it insures against.
//
// Attack model: a stealthy injection a = H·c biases the state estimate by
// exactly c, so the operator's estimated injections become p + B·c — a
// load redistribution that is automatically balanced (the columns of B sum
// to zero). The operator, trusting the estimate, re-dispatches for the
// false loads. The realized system then runs the misinformed dispatch
// against the TRUE loads: branches overload, and the operator must pay for
// emergency correction (ramp-limited redispatch plus load shedding at the
// value of lost load).
package impact

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"gridmtd/internal/dcflow"
	"gridmtd/internal/grid"
	"gridmtd/internal/lp"
	"gridmtd/internal/mat"
	"gridmtd/internal/opf"
)

const (
	// attackRatio is the attacker's ‖a‖₁/‖z‖₁ magnitude budget, the
	// paper's attack scaling.
	attackRatio = 0.08
	// sheddingCostPerMWh is the value of lost load used to price
	// emergency load shedding, in $/MWh.
	sheddingCostPerMWh = 1000
	// rampFrac bounds the corrective UP-ramp per generator as a fraction
	// of its capacity: the attack's damage comes from the window in which
	// generators cannot raise output far beyond the misinformed dispatch.
	// Down-ramping (curtailment) is unrestricted, as in practice.
	rampFrac = 0.1
)

// Config parameterizes the attack-impact evaluation.
type Config struct {
	// Candidates is the number of random attack directions the heuristic
	// worst-case search evaluates (default 200).
	Candidates int
	// Seed seeds the search.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Candidates <= 0 {
		c.Candidates = 200
	}
	return c
}

// Result reports the realized impact of one undetected attack.
type Result struct {
	// C is the state bias injected by the attacker.
	C []float64
	// FalseLoadsMW are the loads the operator believed.
	FalseLoadsMW []float64
	// MisinformedDispatchMW is the OPF dispatch for the false loads.
	MisinformedDispatchMW []float64
	// PreCorrectionFlowsMW are the true flows under that dispatch.
	PreCorrectionFlowsMW []float64
	// OverloadedLines are 0-based branches whose true flow exceeds the
	// limit before correction.
	OverloadedLines []int
	// ShedMW is the emergency load shed during correction.
	ShedMW float64
	// RealizedCost is the corrective operating cost: generation cost of
	// the ramp-limited redispatch plus shedding at the VOLL.
	RealizedCost float64
	// BaselineCost is the no-attack OPF cost at the true loads.
	BaselineCost float64
	// CostIncrease is (RealizedCost − BaselineCost)/BaselineCost.
	CostIncrease float64
}

func evaluate(n *grid.Network, x []float64, c []float64) (*Result, error) {
	if len(c) != n.N()-1 {
		return nil, errors.New("impact: state bias has wrong length")
	}
	baseline, err := opf.SolveDispatch(n, x)
	if err != nil {
		return nil, fmt.Errorf("impact: baseline OPF: %w", err)
	}

	// Estimated injection shift: δp = B·c (per-unit) expanded over all
	// buses, converted to MW.
	b := n.BMatrix(x)
	cFull := n.ExpandVec(c, 0)
	deltaP := mat.ScaleVec(n.BaseMVA, mat.MulVec(b, cFull))

	// The operator sees loads l̂ = l − δp (higher estimated injection reads
	// as lower load). Negative estimated loads are physically implausible
	// and would be caught by sanity checks; clamp the attack there.
	falseNet := n.Clone()
	falseLoads := make([]float64, n.N())
	for i, bus := range n.Buses {
		falseLoads[i] = bus.LoadMW - deltaP[i]
		if falseLoads[i] < 0 {
			falseLoads[i] = 0
		}
	}
	falseNet.SetLoadsMW(falseLoads)

	misinformed, err := opf.SolveDispatch(falseNet, x)
	if err != nil {
		// The false loads congest the system past feasibility: the
		// operator would notice; treat as no-impact.
		return &Result{
			C:            mat.CopyVec(c),
			FalseLoadsMW: falseLoads,
			BaselineCost: baseline.CostPerHour,
			RealizedCost: baseline.CostPerHour,
		}, nil
	}

	// True flows under the misinformed dispatch.
	trueFlow, err := dcflow.Solve(n, x, balancedInjections(n, misinformed.DispatchMW))
	if err != nil {
		return nil, err
	}
	overloads := dcflow.Violations(n, trueFlow.FlowsMW, 1e-6)

	realized, shed, err := correctiveCost(n, x, misinformed.DispatchMW)
	if err != nil {
		return nil, err
	}

	return &Result{
		C:                     mat.CopyVec(c),
		FalseLoadsMW:          falseLoads,
		MisinformedDispatchMW: misinformed.DispatchMW,
		PreCorrectionFlowsMW:  trueFlow.FlowsMW,
		OverloadedLines:       overloads,
		ShedMW:                shed,
		RealizedCost:          realized,
		BaselineCost:          baseline.CostPerHour,
		CostIncrease:          (realized - baseline.CostPerHour) / baseline.CostPerHour,
	}, nil
}

// balancedInjections returns true-load injections for a dispatch whose
// total may differ from the true demand; the slack generator's bus absorbs
// the mismatch (frequency regulation in practice).
func balancedInjections(n *grid.Network, dispatch []float64) []float64 {
	inj := n.InjectionsMW(dispatch)
	imbalance := mat.SumVec(inj)
	inj[n.SlackBus-1] -= imbalance
	return inj
}

// correctiveCost solves the operator's emergency problem after the attack
// is realized: ramp-limited redispatch around the misinformed dispatch g',
// with load shedding s priced at the VOLL, subject to true-network flow
// limits:
//
//	min  c·g + VOLL·Σs
//	s.t. Σg = Σ(l − s), |PTDF·(inj)| <= fmax,
//	     gmin <= g <= min(gmax, g'+ramp), 0 <= s <= l.
func correctiveCost(n *grid.Network, x []float64, gPrime []float64) (cost, shedMW float64, err error) {
	nG := len(n.Gens)
	nb := n.N()
	nv := nG + nb

	ptdf, err := n.PTDF(x)
	if err != nil {
		return 0, 0, err
	}

	cVec := make([]float64, nv)
	copy(cVec, n.GenCosts())
	for j := nG; j < nv; j++ {
		cVec[j] = sheddingCostPerMWh
	}

	lo := make([]float64, nv)
	hi := make([]float64, nv)
	gLo, gHi := n.GenBounds()
	for i, g := range n.Gens {
		ramp := rampFrac * g.MaxMW
		lo[i] = gLo[i]
		hi[i] = math.Min(gHi[i], gPrime[i]+ramp)
		if hi[i] < lo[i] { // numerical guard
			hi[i] = lo[i]
		}
	}
	for i, bus := range n.Buses {
		lo[nG+i] = 0
		hi[nG+i] = bus.LoadMW
	}

	// Balance: Σg + Σs = Σl.
	aeq := mat.NewDense(1, nv)
	for j := 0; j < nv; j++ {
		aeq.Set(0, j, 1)
	}
	beq := []float64{n.TotalLoadMW()}

	// Flows: inj_i = Σ_{g@i} g + s_i − l_i ; |PTDF·inj_red| <= fmax.
	// Build the per-variable injection incidence for non-slack buses.
	var rows []int
	for l, br := range n.Branches {
		if !math.IsInf(br.LimitMW, 1) {
			rows = append(rows, l)
		}
	}
	var aub *mat.Dense
	var bub []float64
	if len(rows) > 0 {
		// sens[l][v]: effect of variable v on flow l.
		sens := mat.NewDense(n.L(), nv)
		unit := make([]float64, nb)
		for v := 0; v < nv; v++ {
			for i := range unit {
				unit[i] = 0
			}
			if v < nG {
				unit[n.Gens[v].Bus-1] = 1
			} else {
				unit[v-nG] = 1 // shedding at bus v-nG acts like injection
			}
			col := mat.MulVec(ptdf, n.ReduceVec(unit))
			sens.SetCol(v, col)
		}
		// Constant part: flows from −l.
		loadFlow := mat.MulVec(ptdf, n.ReduceVec(n.LoadsMW()))
		aub = mat.NewDense(2*len(rows), nv)
		bub = make([]float64, 2*len(rows))
		for k, l := range rows {
			for v := 0; v < nv; v++ {
				aub.Set(k, v, sens.At(l, v))
				aub.Set(len(rows)+k, v, -sens.At(l, v))
			}
			bub[k] = n.Branches[l].LimitMW + loadFlow[l]
			bub[len(rows)+k] = n.Branches[l].LimitMW - loadFlow[l]
		}
	}

	sol, err := lp.Solve(&lp.Problem{
		C: cVec, Aeq: aeq, Beq: beq, Aub: aub, Bub: bub, Lower: lo, Upper: hi,
	})
	if err != nil {
		return 0, 0, fmt.Errorf("impact: corrective dispatch: %w", err)
	}
	for j := nG; j < nv; j++ {
		shedMW += sol.X[j]
	}
	return sol.Objective, shedMW, nil
}

// WorstCase searches for the most damaging stealthy attack within the
// magnitude budget by evaluating random directions and keeping the worst
// (a heuristic stand-in for the bilevel load-redistribution optimization
// of Yuan et al.). z is the operating measurement vector used for the
// ‖a‖₁/‖z‖₁ scaling.
func WorstCase(n *grid.Network, x, z []float64, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(z) != n.M() {
		return nil, errors.New("impact: measurement vector has wrong length")
	}
	h := n.MeasurementMatrix(x)
	rng := rand.New(rand.NewSource(cfg.Seed))
	zNorm := mat.Norm1(z)
	if zNorm == 0 {
		return nil, errors.New("impact: zero measurement vector")
	}

	var worst *Result
	for k := 0; k < cfg.Candidates; k++ {
		c := make([]float64, n.N()-1)
		for i := range c {
			c[i] = rng.NormFloat64()
		}
		a := mat.MulVec(h, c)
		an := mat.Norm1(a)
		if an == 0 {
			continue
		}
		scale := attackRatio * zNorm / an
		res, err := evaluate(n, x, mat.ScaleVec(scale, c))
		if err != nil {
			return nil, err
		}
		if worst == nil || res.CostIncrease > worst.CostIncrease {
			worst = res
		}
	}
	if worst == nil {
		return nil, errors.New("impact: no valid attack direction found")
	}
	return worst, nil
}
