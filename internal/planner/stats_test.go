package planner

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestStatsKeysGolden pins the /v1/stats JSON shape: the dotted key set
// of a marshalled Stats must match testdata/stats_keys.golden exactly.
// Dashboards, gridmtdload's server window and the router's aggregation
// read these keys, so a change that adds, renames or removes a counter
// updates the golden file too.
func TestStatsKeysGolden(t *testing.T) {
	raw, err := json.Marshal(New(Config{}).Stats())
	if err != nil {
		t.Fatal(err)
	}
	var tree map[string]any
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatal(err)
	}
	var got []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		m, ok := v.(map[string]any)
		if !ok {
			got = append(got, prefix)
			return
		}
		for k, c := range m {
			if prefix != "" {
				k = prefix + "." + k
			}
			walk(k, c)
		}
	}
	walk("", tree)
	slices.Sort(got)

	want, err := os.ReadFile(filepath.Join("testdata", "stats_keys.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if g := strings.Join(got, "\n") + "\n"; g != string(want) {
		t.Errorf("/v1/stats key set drifted from testdata/stats_keys.golden; got:\n%s", g)
	}
}
