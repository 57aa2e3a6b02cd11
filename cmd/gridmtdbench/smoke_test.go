package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	// The cold workloads re-execute this binary as their child process.
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// childPIDs lists the processes whose parent is this one.
func childPIDs(t *testing.T) []int {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		buf, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue // exited since the listing
		}
		s := string(buf)
		fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(fields) > 1 && fields[1] == strconv.Itoa(os.Getpid()) {
			pids = append(pids, pid)
		}
	}
	return pids
}

// smokeSetup builds gridmtdd and returns it with an empty work directory,
// which is also the test's temporary directory from then on.
func smokeSetup(t *testing.T) (bin, work string) {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("the benchmark reads /proc")
	}
	dir := t.TempDir()
	bin, err := buildDaemon(dir)
	if err != nil {
		t.Fatal(err)
	}
	work = filepath.Join(dir, "work")
	if err := os.Mkdir(work, 0o755); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", work)
	return bin, work
}

// checkClean fails the test if a child process or a temporary directory
// outlived the workloads.
func checkClean(t *testing.T, work string) {
	t.Helper()
	if pids := childPIDs(t); len(pids) > 0 {
		t.Errorf("processes left running: %v", pids)
	}
	entries, err := os.ReadDir(work)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("left behind in the work directory: %s", e.Name())
	}
}

// TestWorkloadsSmoke runs every workload at a tiny scale, traced, against a
// real gridmtdd on a free port: each must answer correctly, report every
// end-to-end metric, and leave no process or directory behind.
func TestWorkloadsSmoke(t *testing.T) {
	bin, work := smokeSetup(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var log bytes.Buffer
			o := &options{
				seed: 2, duration: 300 * time.Millisecond, trace: true, setups: 1,
				gridmtdd: bin, log: &log,
			}
			out, err := w.run(o)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if len(out.wrong) > 0 || out.failed > 0 || out.attempted == 0 {
				t.Fatalf("attempted %d, failed %d, wrong %q\n%s", out.attempted, out.failed, out.wrong, log.String())
			}
			for _, m := range endToEnd {
				if !(out.e2e[m.name] > 0) {
					t.Errorf("%s = %v, want > 0", m.name, out.e2e[m.name])
				}
			}
			if strings.HasPrefix(w.name, "cold-") {
				if len(o.spans) == 0 {
					t.Error("the traced pass recorded no spans")
				}
				if c := out.layer["trace.coverage"]; c < 0.95 {
					t.Errorf("stages cover %.3f of the traced total, want ≥ 0.95", c)
				}
			}
		})
	}
	checkClean(t, work)
}

// TestCommandLine runs the command with the flags run.sh passes on and
// checks its last output line and its record file.
func TestCommandLine(t *testing.T) {
	bin, work := smokeSetup(t)
	records := filepath.Join(t.TempDir(), "runs.json")
	var stdout bytes.Buffer
	code, err := run([]string{
		"--workload", "cold-118", "--seed", "3", "--seconds", "0.3", "--trace", "0",
		"-gridmtdd", bin, "-o", records,
	}, &stdout)
	if err != nil || code != 0 {
		t.Fatalf("exit %d, %v\n%s", code, err, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if got, want := slices.Sorted(maps.Keys(last)), []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(got, want) {
		t.Errorf("result keys %v, want %v", got, want)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range endToEnd {
		want = append(want, m.name)
		if got := res.Metrics[m.name]; got.Unit != m.unit || !(got.Value > 0) {
			t.Errorf("%s = %+v", m.name, got)
		}
	}
	slices.Sort(want)
	if got := slices.Sorted(maps.Keys(res.Metrics)); !reflect.DeepEqual(got, want) {
		t.Errorf("metrics %v, want %v", got, want)
	}
	recs, err := readRecords(records)
	if err != nil || len(recs) != 1 || recs[0].Workload != "cold-118" || recs[0].Seed != 3 {
		t.Errorf("records %+v, %v", recs, err)
	}
	if code, err := run([]string{"--workload", "nope"}, &stdout); err == nil || code == 0 {
		t.Error("an unknown workload was accepted")
	}
	checkClean(t, work)
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	spec, err := readBenchSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if !slices.Contains(workloadNames(), w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not one the command runs (%v)", w.Name, workloadNames())
		}
	}
	var e2e, layer []metricDef
	largest := 0.0
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
		largest = max(largest, m.Bound)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == "setup_s" && m.Bound != largest {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, largest)
		}
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, command prints %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, command prints %v", layer, perLayer)
	}
}
