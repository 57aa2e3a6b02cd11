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
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/gamma", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var resp planner.GammaResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("body %q: 200 with undecodable payload %q: %v", body, rec.Body.Bytes(), err)
			}
			if g := resp.Gamma; math.IsNaN(g) || g < 0 || g > math.Pi/2 {
				t.Fatalf("body %q: 200 with γ = %v", body, g)
			}
		case http.StatusBadRequest, http.StatusConflict, http.StatusUnprocessableEntity,
			http.StatusTooManyRequests, http.StatusInternalServerError:
		default:
			t.Fatalf("body %q: status %d (%q)", body, rec.Code, rec.Body.Bytes())
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
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/select", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var resp planner.SelectResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("body %q: 200 with undecodable payload %q: %v", body, rec.Body.Bytes(), err)
			}
			finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
			if !finite(resp.CostIncrease) || !finite(resp.BaselineCost) {
				t.Fatalf("body %q: 200 with cost_increase %v, baseline_cost %v", body, resp.CostIncrease, resp.BaselineCost)
			}
			if g := resp.Gamma; math.IsNaN(g) || g < 0 || g > math.Pi/2 {
				t.Fatalf("body %q: 200 with γ = %v", body, g)
			}
		case http.StatusBadRequest, http.StatusConflict, http.StatusUnprocessableEntity,
			http.StatusTooManyRequests, http.StatusInternalServerError:
		default:
			t.Fatalf("body %q: status %d (%q)", body, rec.Code, rec.Body.Bytes())
		}
	})
}
