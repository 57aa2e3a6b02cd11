package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridmtd"
	"gridmtd/internal/planner"
)

// FuzzServeGammaRequest posts arbitrary bodies to /v1/gamma. Whatever the
// body, the handler must not panic, must answer with one of the statuses
// the daemon maps its outcomes to, and every 200 must carry a finite γ in
// [0, π/2] (γ is the largest principal angle between two column spaces).
func FuzzServeGammaRequest(f *testing.F) {
	n, err := gridmtd.CaseByName("ieee14")
	if err != nil {
		f.Fatal(err)
	}
	x := n.Reactances()
	list := func(v []float64) string {
		s := make([]string, len(v))
		for i, e := range v {
			s[i] = fmt.Sprint(e)
		}
		return "[" + strings.Join(s, ",") + "]"
	}
	scaled := append([]float64(nil), x...)
	for i := range scaled {
		scaled[i] *= 1 + 0.01*float64(i%5)
	}
	bad := func(v float64) []float64 {
		b := append([]float64(nil), x...)
		b[3] = v
		return b
	}
	for _, body := range []string{
		`{"case":"ieee14","x_new":` + list(x) + `}`,
		`{"case":"ieee14","x_new":` + list(scaled) + `}`,
		`{"case":"ieee14","x_old":` + list(scaled) + `,"x_new":` + list(x) + `}`,
		// Invalid reactances (ErrInvalidReactance, 422).
		`{"case":"ieee14","x_new":` + list(bad(0)) + `}`,
		`{"case":"ieee14","x_new":` + list(bad(-0.05)) + `}`,
		`{"case":"ieee14","x_old":` + list(bad(-1)) + `,"x_new":` + list(x) + `}`,
		// JSON has no NaN or infinity: these are decode errors (400).
		`{"case":"ieee14","x_new":[NaN]}`,
		`{"case":"ieee14","x_new":[1e400]}`,
		`{"case":"ieee14","x_new":[-Infinity]}`,
		// Wrong length, unknown case, wrong types, empty bodies.
		`{"case":"ieee14","x_new":[0.1,0.2]}`,
		`{"case":"nosuchcase","x_new":[0.1]}`,
		`{"case":14,"x_new":"x"}`,
		`{}`,
		``,
		`null`,
	} {
		f.Add([]byte(body))
	}
	h := newHandler(planner.New(planner.Config{}), time.Minute)
	f.Fuzz(func(t *testing.T, body []byte) {
		var resp planner.GammaResponse
		if fuzzPost(t, h, "/v1/gamma", body, &resp) {
			checkAngle(t, body, resp.Gamma)
		}
	})
}

// FuzzServeSelectRequest posts arbitrary bodies to /v1/select. Whatever
// the body, the handler must not panic, must answer with one of the
// statuses the daemon maps its outcomes to, and every 200 must carry a
// finite cost_increase and baseline_cost and a γ in [0, π/2]. To keep an
// execution cheap the harness skips bodies the daemon would accept with a
// large work budget (a case above 14 buses, or starts, max_evals or
// attacks past small caps, 0 included since it asks for the default);
// budgets past the daemon's own bounds are rejected before any work and
// still run.
func FuzzServeSelectRequest(f *testing.F) {
	n, err := gridmtd.CaseByName("ieee14")
	if err != nil {
		f.Fatal(err)
	}
	x := n.Reactances()
	list := func(v []float64) string {
		s := make([]string, len(v))
		for i, e := range v {
			s[i] = fmt.Sprint(e)
		}
		return "[" + strings.Join(s, ",") + "]"
	}
	bad := append([]float64(nil), x...)
	bad[3] = -0.05
	const budget = `"starts":1,"max_evals":20,"seed":1,"attacks":20`
	for _, body := range []string{
		`{"case":"ieee14","gamma_threshold":0.05,` + budget + `}`,
		`{"case":"ieee14","gamma_threshold":0.1,"x_old":` + list(x) + `,` + budget + `}`,
		`{"case":"ieee14","gamma_threshold":0,"max_gamma":true,` + budget + `}`,
		`{"case":"ieee14","gamma_threshold":5,"max_gamma":true,` + budget + `}`,
		`{"case":"ieee14","gamma_threshold":5,` + budget + `}`,
		// Invalid reactances (ErrInvalidReactance, 422) and a wrong length.
		`{"case":"ieee14","gamma_threshold":0.05,"x_old":` + list(bad) + `,` + budget + `}`,
		`{"case":"ieee14","gamma_threshold":0.05,"x_old":[0.1,0.2],` + budget + `}`,
		// Out-of-domain fields (ErrOutOfDomain, ErrInvalidLoad, unknown γ
		// backend: 422).
		`{"case":"ieee14","starts":-1,"max_evals":20,"attacks":20}`,
		`{"case":"ieee14","sigma":-1,"alpha":2,` + budget + `}`,
		`{"case":"ieee14","load_scale":-1,` + budget + `}`,
		`{"case":"ieee14","gamma_backend":"nope",` + budget + `}`,
		// Oversized budgets (ErrBudgetTooLarge, ErrTooManyAttacks: 422).
		`{"case":"ieee14","starts":65,"max_evals":20,"attacks":20}`,
		`{"case":"ieee14","starts":1,"max_evals":100001,"attacks":20}`,
		`{"case":"ieee14","starts":1,"max_evals":20,"attacks":10001}`,
		// Decode errors (400) and an unknown case.
		`{"case":"ieee14","gamma_threshold":NaN}`,
		`{"case":14}`,
		`{"case":"nosuchcase",` + budget + `}`,
		``,
	} {
		f.Add([]byte(body))
	}
	h := newHandler(planner.New(planner.Config{}), time.Minute)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req planner.SelectRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil {
			if c, err := gridmtd.CaseByName(req.Case); err == nil && c.N() > 14 {
				t.Skip("case too large for a fuzz execution")
			}
			expensive := func(v, limit, bound int) bool { return v >= 0 && v <= bound && (v == 0 || v > limit) }
			if expensive(req.Starts, 2, planner.MaxStarts) || expensive(req.MaxEvals, 40, planner.MaxEvals) ||
				expensive(req.Attacks, 50, planner.MaxAttacks) {
				t.Skip("work budget too large for a fuzz execution")
			}
		}
		var resp planner.SelectResponse
		if fuzzPost(t, h, "/v1/select", body, &resp) {
			checkFinite(t, body, "cost_increase", resp.CostIncrease)
			checkFinite(t, body, "baseline_cost", resp.BaselineCost)
			checkAngle(t, body, resp.Gamma)
		}
	})
}

// FuzzServePlacementRequest posts arbitrary bodies to /v1/placement.
// Whatever the body, the handler must not panic, must answer with one of
// the statuses the daemon maps its outcomes to, and every 200 must carry,
// in every round, a finite cost_increase and a γ and probe γ in [0, π/2].
// To keep an execution cheap the harness skips bodies naming a case above
// 14 buses or a pool of more than 20 branches (the daemon caps a
// deployment at 12 devices itself).
func FuzzServePlacementRequest(f *testing.F) {
	for _, body := range []string{
		`{"case":"ieee14"}`,
		`{"case":"ieee14","devices":3}`,
		`{"case":"ieee14","devices":2,"pool":[1,2,3,4,5]}`,
		`{"case":"ieee14","devices":2,"all_branches":true}`,
		`{"case":"ieee14","devices":13,"pool":[1,2,3]}`,
		`{"case":"ieee14","devices":2,"gamma_backend":"sketch"}`,
		// Out-of-range pool branches, a negative deployment and an unknown
		// γ backend (422).
		`{"case":"ieee14","pool":[0]}`,
		`{"case":"ieee14","pool":[99]}`,
		`{"case":"ieee14","devices":-1}`,
		`{"case":"ieee14","gamma_backend":"nope"}`,
		// Decode errors (400) and an unknown case.
		`{"case":"ieee14","devices":NaN}`,
		`{"case":14}`,
		`{"case":"nosuchcase"}`,
		``,
	} {
		f.Add([]byte(body))
	}
	h := newHandler(planner.New(planner.Config{}), time.Minute)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req planner.PlacementRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil {
			if c, err := gridmtd.CaseByName(req.Case); err == nil && c.N() > 14 {
				t.Skip("case too large for a fuzz execution")
			}
			if len(req.Pool) > 20 {
				t.Skip("pool too large for a fuzz execution")
			}
		}
		var resp planner.PlacementResponse
		if fuzzPost(t, h, "/v1/placement", body, &resp) {
			for _, r := range resp.Rounds {
				checkFinite(t, body, "cost_increase", r.CostIncrease)
				checkAngle(t, body, r.Gamma)
				checkAngle(t, body, r.ProbeGamma)
			}
		}
	})
}

// FuzzServeDaySweepRequest posts arbitrary bodies to /v1/daysweep.
// Whatever the body, the handler must not panic, must answer with one of
// the statuses the daemon maps its outcomes to, and every 200 must carry,
// in every hour, a finite baseline_cost, mtd_cost and cost_increase and a
// γ in [0, π/2]. To keep an execution cheap the harness skips bodies the
// daemon would accept with a large work budget: a case above 14 buses,
// more than 3 hours, or iterations, starts, opf_starts or attacks past
// small caps (attacks 0 included, since it asks for the default of 100);
// budgets past the daemon's own bounds are rejected before any work and
// still run.
func FuzzServeDaySweepRequest(f *testing.F) {
	const budget = `"iterations":1,"attacks":20,"starts":1,"opf_starts":1,"seed":1`
	for _, body := range []string{
		`{"case":"ieee14","hours":[2],` + budget + `}`,
		`{"case":"ieee14","hours":[8,17],` + budget + `}`,
		`{"case":"ieee14","hours":[17],"peak_load_mw":300,` + budget + `}`,
		`{"case":"ieee14","hours":[2],"target_delta":0.5,"target_eta":0.99,` + budget + `}`,
		// Out-of-range hours, a negative load, negative and oversized
		// budgets (422).
		`{"case":"ieee14","hours":[24],` + budget + `}`,
		`{"case":"ieee14","hours":[-1],` + budget + `}`,
		`{"case":"ieee14","hours":[2],"peak_load_mw":-5,` + budget + `}`,
		`{"case":"ieee14","hours":[2],"iterations":-1,"attacks":20}`,
		`{"case":"ieee14","hours":[2],"iterations":101,"attacks":20}`,
		`{"case":"ieee14","hours":[2],"iterations":1,"attacks":10001}`,
		`{"case":"ieee14","hours":[0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,0],` + budget + `}`,
		// Decode errors (400) and an unknown case.
		`{"case":"ieee14","peak_load_mw":NaN}`,
		`{"case":14}`,
		`{"case":"nosuchcase",` + budget + `}`,
		``,
	} {
		f.Add([]byte(body))
	}
	h := newHandler(planner.New(planner.Config{}), time.Minute)
	f.Fuzz(func(t *testing.T, body []byte) {
		var req planner.DaySweepRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil {
			if c, err := gridmtd.CaseByName(req.Case); err == nil && c.N() > 14 {
				t.Skip("case too large for a fuzz execution")
			}
			// 0 asks for the default, which is cheap for every field but
			// attacks.
			expensive := func(v, limit, bound int) bool { return v > limit && v <= bound }
			if expensive(len(req.Hours), 3, planner.MaxHours) || expensive(req.Iterations, 2, planner.MaxIterations) ||
				expensive(req.Starts, 2, planner.MaxStarts) || expensive(req.OPFStarts, 3, planner.MaxStarts) ||
				req.Attacks == 0 || expensive(req.Attacks, 50, planner.MaxAttacks) {
				t.Skip("work budget too large for a fuzz execution")
			}
		}
		var resp planner.DaySweepResponse
		if fuzzPost(t, h, "/v1/daysweep", body, &resp) {
			for _, hr := range resp.Hours {
				checkFinite(t, body, "baseline_cost", hr.BaselineCost)
				checkFinite(t, body, "mtd_cost", hr.MTDCost)
				checkFinite(t, body, "cost_increase", hr.CostIncrease)
				checkAngle(t, body, hr.Gamma)
			}
		}
	})
}

// fuzzPost posts body to path on h. It fails the test on a status the
// daemon does not map an outcome to, and on a 200 whose payload does not
// decode into resp; it reports whether the answer was a 200.
func fuzzPost(t *testing.T, h http.Handler, path string, body []byte, resp any) bool {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	switch rec.Code {
	case http.StatusOK:
		if err := json.Unmarshal(rec.Body.Bytes(), resp); err != nil {
			t.Fatalf("body %q: 200 with undecodable payload %q: %v", body, rec.Body.Bytes(), err)
		}
		return true
	case http.StatusBadRequest, http.StatusConflict, http.StatusUnprocessableEntity,
		http.StatusTooManyRequests, http.StatusInternalServerError:
		return false
	}
	t.Fatalf("body %q: status %d (%q)", body, rec.Code, rec.Body.Bytes())
	return false
}

// checkFinite fails the test when a served number is NaN or infinite.
func checkFinite(t *testing.T, body []byte, name string, v float64) {
	t.Helper()
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("body %q: 200 with %s %v", body, name, v)
	}
}

// checkAngle fails the test when a served γ lies outside [0, π/2], the
// range of the largest principal angle between two column spaces.
func checkAngle(t *testing.T, body []byte, g float64) {
	t.Helper()
	if math.IsNaN(g) || g < 0 || g > math.Pi/2 {
		t.Fatalf("body %q: 200 with γ = %v", body, g)
	}
}
