package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gridmtd"
)

func TestCaseRegistryLookups(t *testing.T) {
	for _, name := range []string{
		"case4gs", "4bus", "ieee14", "14bus", "ieee30", "30bus",
		"ieee57", "57bus", "case57", "ieee118", "118bus", "case118",
	} {
		if _, err := gridmtd.CaseByName(name); err != nil {
			t.Errorf("CaseByName(%q): %v", name, err)
		}
	}
	if _, err := gridmtd.CaseByName("nope"); err == nil {
		t.Error("expected error for unknown case")
	}
}

func TestRunCaseList(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-case", "list"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"case4gs", "ieee14", "ieee30", "ieee57", "ieee118"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("case list missing %s:\n%s", want, buf.String())
		}
	}
}

// TestBackendDiscoverability pins the "-backend list" surface and the
// requirement that a bad flag value's error names every valid choice
// (mirroring "-case list").
func TestBackendDiscoverability(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-backend", "list"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"auto", "dense", "sparse"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("backend list missing %s:\n%s", want, buf.String())
		}
	}

	err := run([]string{"-backend", "bogus"}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("expected error for unknown backend")
	}
	for _, want := range []string{"auto", "dense", "sparse"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("backend flag error %q does not list %q", err, want)
		}
	}
}

// TestListingsMatchSharedRenderers pins the flag-dedup contract: the
// listings delegate to the shared facade renderers, so mtdscan's bytes are
// identical to mtdexp's and gridopf's.
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

func TestRunRejectsBadRange(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-from", "0.5", "-to", "0.1"}, &buf); err == nil {
		t.Error("expected error for inverted range")
	}
	if err := run([]string{"-step", "0"}, &buf); err == nil {
		t.Error("expected error for zero step")
	}
	if err := run([]string{"-case", "bogus"}, &buf); err == nil {
		t.Error("expected error for unknown case")
	}
}

func TestRunSmallSweepWithCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is expensive")
	}
	csvPath := filepath.Join(t.TempDir(), "frontier.csv")
	var buf bytes.Buffer
	err := run([]string{
		"-case", "ieee14",
		"-from", "0.2", "-to", "0.2", "-step", "0.1",
		"-attacks", "50", "-starts", "2",
		"-csv", csvPath,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "η'(0.9)") || !strings.Contains(out, "no-MTD cost") {
		t.Errorf("unexpected output:\n%s", out)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 { // header + one sweep point
		t.Errorf("CSV has %d lines, want 2:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "gamma_th,") {
		t.Errorf("CSV header wrong: %s", lines[0])
	}
}
