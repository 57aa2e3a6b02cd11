package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridmtd"
	"gridmtd/internal/experiments"
	"gridmtd/internal/metrics"
)

func TestListFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"table1", "fig6a", "fig10", "impact", "learning"} {
		if !strings.Contains(out, id) {
			t.Errorf("list output missing %q", id)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "nope"}, &buf); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestCaseListFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-case", "list"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"case4gs", "ieee14", "ieee30", "ieee57", "ieee118"} {
		if !strings.Contains(buf.String(), name) {
			t.Errorf("case list missing %q:\n%s", name, buf.String())
		}
	}
}

// TestListingsMatchSharedRenderers pins the flag-dedup contract: the
// listings delegate to the shared facade renderers, so mtdexp's bytes are
// identical to mtdscan's and gridopf's.
func TestListingsMatchSharedRenderers(t *testing.T) {
	for _, tc := range []struct {
		flag   string
		render func(*bytes.Buffer)
	}{
		{"-case", func(b *bytes.Buffer) { gridmtd.FormatCases(b) }},
		{"-backend", func(b *bytes.Buffer) { gridmtd.FormatBackends(b) }},
	} {
		var got, want bytes.Buffer
		if err := run([]string{tc.flag, "list"}, &got); err != nil {
			t.Fatalf("%s list: %v", tc.flag, err)
		}
		tc.render(&want)
		if got.String() != want.String() {
			t.Errorf("%s list diverged from the shared renderer:\n got %q\nwant %q",
				tc.flag, got.String(), want.String())
		}
	}
}

// TestVerboseLPStats pins mtdexp -v: after a run the process-wide
// dispatch-LP counter block is appended, making warm-path health (eta
// updates vs refactorizations) observable from the CLI.
func TestVerboseLPStats(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "table1", "-quick", "-v"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"dispatch LP:", "eta updates", "refactorizations"} {
		if !strings.Contains(out, want) {
			t.Errorf("-v output missing %q:\n%s", want, out)
		}
	}
}

func TestCaseOverrideOnPinnedExperiment(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-exp", "table1", "-case", "ieee118"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("err = %v, want pinned-experiment error", err)
	}
}

func TestCaseOverrideUnknownCase(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fig6a", "-case", "bogus"}, &buf); err == nil {
		t.Fatal("expected error for unknown case")
	}
}

func TestRunTablesWithOutputFile(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "out.txt")
	var buf bytes.Buffer
	if err := run([]string{"-exp", "table1,table4", "-out", outPath}, &buf); err != nil {
		t.Fatal(err)
	}
	// Output goes to both the writer and the file.
	if !strings.Contains(buf.String(), "Table I") {
		t.Error("stdout missing Table I")
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Table IV") {
		t.Error("file output missing Table IV")
	}
}

func TestQuickFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "table2", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "quality: quick") {
		t.Error("quick quality not reported")
	}
}

// TestCaseOverrideHeadersNameTheCase checks that under -case every
// experiment header names the case the run is on, not the paper's grid.
func TestCaseOverrideHeadersNameTheCase(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "all", "-case", "ieee14", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	headers := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "=== ") {
			continue
		}
		headers++
		if !strings.Contains(line, "case ieee14") || strings.Contains(line, "IEEE") {
			t.Errorf("header does not name case ieee14: %q", line)
		}
	}
	if want := len(experiments.CaseGenericIDs()); headers != want {
		t.Fatalf("%d headers, want one per case-generic experiment (%d)", headers, want)
	}
}

// TestSparseDaySweepSolvesOnRevisedPath pins the dispatch-LP route of a
// sparse-tier day sweep and tradeoff (fig10 and fig9 on ieee57): every LP
// is solved by the revised simplex from the start basis it is given, with
// no abandoned attempt and no flat-tableau solve. It reads the
// process-wide counters, so it must not run in parallel with other tests.
func TestSparseDaySweepSolvesOnRevisedPath(t *testing.T) {
	before := gridmtd.GlobalLPStats()
	if err := run([]string{"-exp", "fig10,fig9", "-case", "ieee57", "-quick"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	d := metrics.Delta(gridmtd.GlobalLPStats(), before)
	if d.Solves == 0 {
		t.Fatal("no dispatch LP solved")
	}
	if d.ColdSolves != 0 || d.Fallbacks != 0 {
		t.Fatalf("%d solves: %d cold, %d fallbacks; want 0 and 0", d.Solves, d.ColdSolves, d.Fallbacks)
	}
}

// TestSparseTradeoff118HasNoFallbacks pins the same route on ieee118's
// fig9 tradeoff, whose seeded starts most often need a flow-limit slack
// flipped between its bounds: every LP solves on the revised path from
// the start it is given, with no abandoned attempt and no flat-tableau
// solve. It reads the process-wide counters, so it must not run in
// parallel with other tests.
func TestSparseTradeoff118HasNoFallbacks(t *testing.T) {
	before := gridmtd.GlobalLPStats()
	if err := run([]string{"-exp", "fig9", "-case", "ieee118", "-quick"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	d := metrics.Delta(gridmtd.GlobalLPStats(), before)
	if d.Solves == 0 {
		t.Fatal("no dispatch LP solved")
	}
	if d.ColdSolves != 0 || d.Fallbacks != 0 {
		t.Fatalf("%d solves: %d cold, %d fallbacks; want 0 and 0", d.Solves, d.ColdSolves, d.Fallbacks)
	}
}
