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
