package cases

// Calibrated flow limits for the 4-bus example. The paper omits them; these
// values minimize the deviation of the reproduced Table III dispatch from
// the published one (RMSE 0.35 MW across the four perturbations;
// cmd/calib4bus re-runs the calibration sweep).
const (
	Case4GSLine1LimitMW = 127.7
	Case4GSLine2LimitMW = 173.5
)

// case4gs is the 4-bus test system of the paper's motivating example
// (Section IV-B): MATPOWER's case4gs (Grainger & Stevenson) with the
// reverse-engineered Table II/III economics. The paper does not list the
// generator costs and flow limits it used; linear costs c1 = 20,
// c2 = 30 $/MWh reproduce every cost in the tables exactly (and reveal that
// Table III's "1.595e4" for Δx2 is a typo for 1.1595e4), generator 1
// capacity 350 MW gives the pre-perturbation dispatch (350, 150), and the
// flow limits on branches 1 and 2 are calibrated so the post-perturbation
// dispatches match Table III (pinned by TestCase4GSPerturbedTableIII in
// internal/opf/opf_test.go). All four branches carry
// D-FACTS with a ±50% range so the example's ±20% perturbations stay in
// range.
func init() {
	Register(&Spec{
		Name:     "case4gs",
		Aliases:  []string{"4bus"},
		Title:    "4-bus motivating example (MATPOWER case4gs, Table II/III economics)",
		BaseMVA:  100,
		SlackBus: 1,
		LoadsMW:  []float64{50, 170, 200, 80},
		Branches: []Branch{
			{From: 1, To: 2, X: 0.0504, LimitMW: Case4GSLine1LimitMW},
			{From: 1, To: 3, X: 0.0372, LimitMW: Case4GSLine2LimitMW},
			{From: 2, To: 4, X: 0.0372, LimitMW: 250},
			{From: 3, To: 4, X: 0.0636, LimitMW: 250},
		},
		Gens: []Gen{
			{Bus: 1, CostPerMWh: 20, MinMW: 0, MaxMW: 350},
			{Bus: 4, CostPerMWh: 30, MinMW: 0, MaxMW: 318},
		},
		DFACTS: []int{1, 2, 3, 4},
		EtaMax: 0.5,
	})
}
