// Package experiments reproduces every table and figure of the paper's
// evaluation (Section VII). Each figure is a scenario.Spec carrying the
// paper's protocol (its quick and case-override variants included) whose
// rows a text formatter prints as the series the paper reports; the tables
// and the Section VII-D extension compute their few rows directly.
// The cmd/mtdexp binary and the repository benchmarks are thin wrappers
// around this package; testdata/golden_quick_all.txt pins the quick-mode
// output of every experiment (golden_test.go).
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Quality selects the evaluation budget.
type Quality int

const (
	// Full reproduces the paper's protocol (1000 attacks, 500 keyspace
	// draws, 24-hour day, full multi-start budgets).
	Full Quality = iota
	// Quick shrinks sampling budgets for benchmarks and smoke tests while
	// preserving every code path and the qualitative shapes.
	Quick
)

// String names the quality level.
func (q Quality) String() string {
	if q == Quick {
		return "quick"
	}
	return "full"
}

// Options parameterizes one experiment run.
type Options struct {
	// Quality selects the sampling budget.
	Quality Quality
	// Case optionally overrides the grid of a case-generic experiment with
	// a registered case name (resolved through grid.CaseByName). Pinned
	// experiments — the ones reproducing a specific paper artifact on a
	// specific system — reject an override.
	Case string
}

// Experiment is a runnable reproduction of one paper artifact.
type Experiment struct {
	// ID is the registry key (e.g. "table1", "fig6a").
	ID string
	// Title describes the paper artifact.
	Title string
	// CaseGeneric marks experiments whose protocol runs on any registered
	// case via Options.Case.
	CaseGeneric bool
	// System is the paper's grid as Title names it ("IEEE 14-bus"); a run
	// on another case names that case in its place (see TitleFor).
	System string
	// Run executes the experiment and writes its table(s) to w.
	Run func(w io.Writer, opts Options) error
}

// TitleFor returns the title of a run on the named case: a case-generic
// experiment names the case in place of its paper grid, and an empty
// name keeps Title.
func (e Experiment) TitleFor(caseName string) string {
	if caseName == "" || !e.CaseGeneric {
		return e.Title
	}
	return strings.Replace(e.Title, e.System, "case "+caseName, 1)
}

// RunOne executes the experiment with the options, enforcing the
// case-override contract: a case override on a pinned experiment is an
// error that names the case-generic alternatives.
func RunOne(e Experiment, w io.Writer, opts Options) error {
	if opts.Case != "" && !e.CaseGeneric {
		return fmt.Errorf("experiments: %s is pinned to its paper case; case-generic experiments: %s",
			e.ID, strings.Join(CaseGenericIDs(), ", "))
	}
	return e.Run(w, opts)
}

// CaseGenericIDs returns the IDs of the experiments that accept a case
// override, sorted.
func CaseGenericIDs() []string {
	var ids []string
	for id, e := range registry {
		if e.CaseGeneric {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// registry holds all experiments keyed by ID.
var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// All returns the experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks up an experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// IDs returns the sorted registry keys.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// renderTable writes a fixed-width text table.
func renderTable(w io.Writer, title string, headers []string, rows [][]string) error {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
			return err
		}
	}
	writeRow := func(cells []string) error {
		for i, c := range cells {
			if _, err := fmt.Fprintf(w, "%-*s", widths[i]+2, c); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintln(w)
		return err
	}
	if err := writeRow(headers); err != nil {
		return err
	}
	sep := make([]string, len(headers))
	for i := range sep {
		for j := 0; j < widths[i]; j++ {
			sep[i] += "-"
		}
	}
	if err := writeRow(sep); err != nil {
		return err
	}
	for _, row := range rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
