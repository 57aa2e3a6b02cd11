package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareRuns(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5, 100}
	wide := []float64{60, 140, 80, 120, 100, 100}
	for _, c := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"same", base, base, true, "ok"},
		{"worse within bound", base, scaled(base, 1.05), true, "ok"},
		{"worse past bound", base, scaled(base, 1.3), true, "REGRESSED"},
		{"higher is better", base, scaled(base, 0.7), false, "REGRESSED"},
		{"spread wider than bound", base, wide, true, "unresolved"},
		{"better past bound", base, scaled(base, 0.7), true, "better"},
		{"every run better despite spread", wide, scaled(base, 0.5), true, "better"},
	} {
		if got := compareRuns(c.a, c.b, c.lowerBetter, 0.15); got.status != c.want {
			t.Errorf("%s: %s (worse %.3f, spread %.3f), want %s", c.name, got.status, got.worse, got.spread, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency float64) string {
		path := filepath.Join(dir, name)
		for seed, jitter := range []float64{1, 1.01, 0.99, 1.005, 0.995} {
			res := result{Correct: true, Attempted: 10, Metrics: map[string]metric{}}
			for _, m := range endToEnd {
				res.Metrics[m.name] = metric{jitter, m.unit}
			}
			res.Metrics["latency_ms"] = metric{latency * jitter, "ms"}
			if err := appendRecord(path, record{"cold-118", int64(seed), 0, res}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	spec := filepath.Join("..", "..", "BENCHMARK.json")
	a, same, slow := write("a.json", 50), write("b.json", 50), write("c.json", 80)

	var out bytes.Buffer
	code, err := compareFiles(a, same, spec, &out)
	if err != nil {
		t.Fatal(err)
	}
	// The other workloads have no runs in either file.
	if code != 1 || !strings.Contains(out.String(), "missing") {
		t.Errorf("exit %d, want 1 with missing workloads:\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "REGRESSED") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("identical sets compare as changed:\n%s", out.String())
	}

	out.Reset()
	if _, err := compareFiles(a, slow, spec, &out); err != nil {
		t.Fatal(err)
	}
	var line string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.Contains(l, "latency_ms") && !strings.Contains(l, "missing") {
			line = l
			break
		}
	}
	if !strings.HasSuffix(line, "REGRESSED") {
		t.Errorf("a 60%% slower median is not a regression:\n%s", out.String())
	}
}

func TestReadRecordsRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{\"workload\":\"x\"}\nnot json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readRecords(path); err == nil {
		t.Error("a record file with a non-JSON line was accepted")
	}
}
