package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"gridmtd/internal/grid"
)

// TestReproducesEmbeddedRatings300 checks the provenance of the ieee300
// case's ratings: the command line its data file names (-case ieee300
// -floor 30, default headroom 1.1, nominal reactances only) regenerates
// every embedded LimitMW exactly.
func TestReproducesEmbeddedRatings300(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "ieee300", 1.1, 30, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	open, end := strings.Index(out, "{"), strings.LastIndex(out, "}")
	if open < 0 || end < open {
		t.Fatalf("no array literal in the output:\n%s", out)
	}
	var got []float64
	for _, f := range strings.FieldsFunc(out[open+1:end], func(r rune) bool { return r == ',' || r == ' ' || r == '\n' || r == '\t' }) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
	n, err := grid.CaseByName("ieee300")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(n.Branches) {
		t.Fatalf("%d ratings generated, the case has %d branches", len(got), len(n.Branches))
	}
	for l, b := range n.Branches {
		if got[l] != b.LimitMW {
			t.Errorf("branch %d: generated %g MW, embedded %g MW", l, got[l], b.LimitMW)
		}
	}
}
