package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridmtd"
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
