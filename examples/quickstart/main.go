// Quickstart: the full MTD story on the IEEE 14-bus system in one program.
//
//  1. Solve the OPF to find the grid's operating point.
//  2. Play the attacker: craft a stealthy false-data injection a = H·c that
//     the bad data detector cannot see, and show that it biases the state
//     estimate while keeping the residual at the noise floor.
//  3. Play the defender: apply a designed MTD reactance perturbation
//     (γ ≥ 0.3) and show the same attack now lights up the detector.
//  4. Report the insurance premium: the MTD's operational cost.
//
// The operating point, the MTD selection and the population-level η'(δ)
// evaluation are one single-point γ-sweep scenario; the attack
// demonstration plays out against its results.
//
// Run with: go run ./examples/quickstart [-case ieee118] [-gamma 0.3]
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"gridmtd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")
	caseName := flag.String("case", "ieee14", "registered case to run the story on")
	gammaTh := flag.Float64("gamma", 0.3, "γ threshold for the designed MTD")
	flag.Parse()

	probe, err := gridmtd.CaseByName(*caseName)
	if err != nil {
		log.Fatal(err)
	}

	// Search budgets: the paper-sized cases afford the full multi-start
	// protocol; on the ≥57-bus cases a γ evaluation costs milliseconds
	// rather than microseconds, so the demo trims the budget (results stay
	// deterministic, just less exhaustively optimized). The trimmed budget
	// bounds the max-γ fallback's searches too.
	starts, maxEvals := 6, 0
	if probe.N() >= 50 {
		starts, maxEvals = 2, 30*len(probe.DFACTSIndices())
	}

	// One scenario computes the whole defender side: the pre-perturbation
	// problem-(1) operating point, the γ-constrained selection (falling
	// back to the hardware's best design when the threshold is out of
	// reach) and the population-level effectiveness against 200 random
	// attacks — all on one shared dispatch engine.
	res, err := gridmtd.RunScenario(gridmtd.Scenario{
		Kind:            gridmtd.ScenarioGammaSweep,
		Case:            *caseName,
		GammaGrid:       []float64{*gammaTh},
		CapWithMaxGamma: true,
		SelectStarts:    starts,
		MaxEvals:        maxEvals,
		Seed:            2,
		OPFStarts:       starts + 2,
		OPFSeed:         1,
		Effectiveness:   gridmtd.EffectivenessConfig{NumAttacks: 200, Seed: 3},
	})
	if err != nil {
		log.Fatal(err)
	}
	n, pre := res.Net, res.Baseline
	if len(res.Rows) == 0 {
		log.Fatalf("no operable MTD design on case %s", *caseName)
	}
	mtd := res.Rows[len(res.Rows)-1]

	fmt.Printf("case %s: %d buses, %d branches, %.0f MW load\n",
		n.Name, n.N(), n.L(), n.TotalLoadMW())
	fmt.Printf("pre-perturbation OPF cost: %.1f $/h\n\n", pre.CostPerHour)

	z, err := gridmtd.OperatingMeasurements(n, pre.Reactances)
	if err != nil {
		log.Fatal(err)
	}

	// 2. The attacker learned H and crafts a stealthy attack sized at 8% of
	// the measurement magnitude (the paper's scaling).
	rng := rand.New(rand.NewSource(7))
	atk, err := gridmtd.RandomAttack(rng, n, pre.Reactances, z, 0.08)
	if err != nil {
		log.Fatal(err)
	}
	est, err := gridmtd.NewEstimator(n, pre.Reactances)
	if err != nil {
		log.Fatal(err)
	}
	const (
		sigma = 0.0015 // measurement noise, per-unit
		alpha = 5e-4   // BDD false-positive rate
	)
	bdd, err := gridmtd.NewBDD(est, sigma, alpha)
	if err != nil {
		log.Fatal(err)
	}

	// Attack residual with no noise: identically zero for a = Hc.
	zAttacked := make([]float64, len(z))
	for i := range z {
		zAttacked[i] = z[i] + atk.A[i]
	}
	fmt.Printf("attack: ‖a‖₁/‖z‖₁ = %.3f, state bias ‖c‖ = %.4f rad\n",
		gridmtd.Norm1(atk.A)/gridmtd.Norm1(z), gridmtd.Norm2(atk.C))
	fmt.Printf("BDD residual under attack: %.2e (threshold τ = %.2e) -> %s\n",
		est.Residual(zAttacked), bdd.Tau, verdict(bdd.Detect(est.Residual(zAttacked))))
	pd, err := est.DetectionProbability(bdd, atk.A)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detection probability with noise: %.4f (= false-positive rate)\n\n", pd)

	// 3. The defender's perturbation, from the scenario above.
	if res.Exhausted {
		fmt.Printf("γ_th = %.2f is beyond this case's D-FACTS reach; using the max-γ design\n", *gammaTh)
	}
	fmt.Printf("MTD applied: γ(H, H') = %.3f rad\n", mtd.Gamma)

	estNew, err := gridmtd.NewEstimator(n, mtd.Reactances)
	if err != nil {
		log.Fatal(err)
	}
	bddNew, err := gridmtd.NewBDD(estNew, sigma, alpha)
	if err != nil {
		log.Fatal(err)
	}
	pdNew, err := estNew.DetectionProbability(bddNew, atk.A)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same attack after MTD: residual component %.4f -> detection probability %.4f\n",
		estNew.ResidualComponent(atk.A), pdNew)
	fmt.Printf("stealthy by Proposition 1? %v\n\n", gridmtd.IsUndetectable(n, mtd.Reactances, atk.A))

	// 4. The premium.
	fmt.Printf("MTD operational cost: %.1f $/h vs %.1f $/h baseline (+%.2f%%)\n",
		mtd.MTDCost, mtd.BaselineCost, 100*mtd.CostIncrease)

	// Population view: 200 random attacks (evaluated by the scenario).
	for i, d := range mtd.Deltas {
		fmt.Printf("η'(%.2f) = %.2f  ", d, mtd.Eta[i])
	}
	fmt.Println()
}

func verdict(detected bool) string {
	if detected {
		return "ALARM"
	}
	return "no alarm (stealthy)"
}
