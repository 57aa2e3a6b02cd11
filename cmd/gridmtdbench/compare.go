package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchSpec(path string) (*benchSpec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// comparison is one metric's two sets of runs side by side.
type comparison struct {
	a, b   [3]float64 // quartiles; [1] is the median
	worse  float64    // how much worse b's median is than a's, as a share of a's
	spread float64    // the wider set's quartile distance over its median
	status string     // "ok", "REGRESSED", "unresolved" or "better"
}

// compareRuns judges set b against baseline set a for a metric whose
// better direction is lower (or higher) and whose bound is the share by
// which b's median may be worse. A spread wider than the bound leaves the
// metric unresolved, unless every run of b is better than every run of a.
func compareRuns(a, b []float64, lowerBetter bool, bound float64) comparison {
	c := comparison{a: quartiles(a), b: quartiles(b)}
	ma, mb := median(a), median(b)
	c.worse = (mb - ma) / ma
	if !lowerBetter {
		c.worse = -c.worse
	}
	c.spread = math.Max((c.a[2]-c.a[0])/ma, (c.b[2]-c.b[0])/mb)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (lowerBetter && y >= x) || (!lowerBetter && y <= x) {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter && (c.spread > bound || c.worse < -bound):
		c.status = "better"
	case c.spread > bound:
		c.status = "unresolved"
	case c.worse > bound:
		c.status = "REGRESSED"
	default:
		c.status = "ok"
	}
	return c
}

// compareFiles compares the runs recorded in two -o files, workload by
// workload: every end-to-end metric against its BENCHMARK.json bound, and
// the per-layer medians for reference. It returns exit status 1 when any
// end-to-end metric regressed, is unresolved or is missing.
func compareFiles(aPath, bPath, specPath string, w io.Writer) (int, error) {
	spec, err := readBenchSpec(specPath)
	if err != nil {
		return 2, err
	}
	sets := [2]map[string]map[string][]float64{} // trace -> workload/metric -> values
	for i, path := range []string{aPath, bPath} {
		recs, err := readRecords(path)
		if err != nil {
			return 2, err
		}
		sets[i] = map[string]map[string][]float64{}
		for _, r := range recs {
			for name, m := range r.Result.Metrics {
				k := fmt.Sprint(r.Trace, "/", r.Workload)
				if sets[i][k] == nil {
					sets[i][k] = map[string][]float64{}
				}
				sets[i][k][name] = append(sets[i][k][name], m.Value)
			}
		}
	}
	code := 0
	for _, wl := range spec.Workloads {
		a, b := sets[0]["0/"+wl.Name], sets[1]["0/"+wl.Name]
		fmt.Fprintf(w, "%s (runs: %d vs %d)\n", wl.Name, runs(a), runs(b))
		fmt.Fprintf(w, "  %-18s %28s %28s %8s %8s %6s  %s\n", "metric", "A median [Q1, Q3]", "B median [Q1, Q3]", "change", "spread", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			va, vb := a[m.Name], b[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "  %-18s missing\n", m.Name)
				code = 1
				continue
			}
			c := compareRuns(va, vb, m.Better == "lower", m.Bound)
			fmt.Fprintf(w, "  %-18s %28s %28s %+7.1f%% %7.1f%% %5.0f%%  %s\n", m.Name,
				quartileText(c.a, m.Unit), quartileText(c.b, m.Unit), 100*c.worse, 100*c.spread, 100*m.Bound, c.status)
			if c.status == "REGRESSED" || c.status == "unresolved" {
				code = 1
			}
		}
		la, lb := sets[0]["1/"+wl.Name], sets[1]["1/"+wl.Name]
		if len(la) == 0 || len(lb) == 0 {
			continue
		}
		fmt.Fprintf(w, "  per-layer medians (runs: %d vs %d)\n", runs(la), runs(lb))
		for _, m := range spec.PerLayer {
			ma, mb := median(la[m.Name]), median(lb[m.Name])
			if ma == 0 && mb == 0 {
				continue
			}
			fmt.Fprintf(w, "    %-32s %14.6g %14.6g %s\n", m.Name, ma, mb, m.Unit)
		}
	}
	return code, nil
}

func runs(m map[string][]float64) int {
	n := 0
	for _, v := range m {
		n = max(n, len(v))
	}
	return n
}

func quartileText(q [3]float64, unit string) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s", q[1], q[0], q[2], unit)
}
