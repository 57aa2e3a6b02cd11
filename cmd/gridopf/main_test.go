package main

import (
	"bytes"
	"strings"
	"testing"

	"gridmtd"
)

// TestListingsMatchSharedRenderers pins the flag-dedup contract: the
// -case/-backend "list" outputs are byte-identical to the shared
// facade renderers (and therefore to every other command's listings).
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

// TestBadFlagErrorsListChoices pins the error contract the shared resolver
// carries: a bad backend value's error names every valid choice.
func TestBadFlagErrorsListChoices(t *testing.T) {
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
