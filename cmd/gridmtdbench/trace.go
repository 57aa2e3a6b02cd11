package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// outside the program. Spans of one replayed request share Request; a
// stage's Parent is its request's root span. Counters holds the change in
// the process-wide planner counters (lp, solve cache, estimator cache)
// across the call.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Request  string             `json:"request"`
	Name     string             `json:"name"`
	StartUS  float64            `json:"start_us"`
	EndUS    float64            `json:"end_us"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

func (s span) ms() float64 { return (s.EndUS - s.StartUS) / 1e3 }

// tracer records spans in memory for one request.
type tracer struct {
	t0       time.Time
	request  string
	nextID   int
	spans    []span
	counters func() map[string]float64
}

// do runs f inside a span named name under parent (0 for a root); f gets
// the new span's id to parent its own spans. The counter snapshots sit
// outside the timed interval.
func (t *tracer) do(name string, parent int, f func(id int) error) error {
	t.nextID++
	id := t.nextID
	before := t.counters()
	start := time.Since(t.t0)
	err := f(id)
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Request: t.request, Name: name,
		StartUS:  float64(start) / 1e3,
		EndUS:    float64(end) / 1e3,
		Counters: delta(t.counters(), before),
	})
	return err
}

// selfTimes returns each span name's self times in milliseconds: the
// span's duration minus the part its child spans cover.
func selfTimes(spans []span) map[string][]float64 {
	children := map[string]float64{} // request/id -> child ms
	for _, s := range spans {
		if s.Parent != 0 {
			children[fmt.Sprint(s.Request, "/", s.Parent)] += s.ms()
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.ms()-children[fmt.Sprint(s.Request, "/", s.ID)])
	}
	return out
}

// printStages prints the median self time of each stage and its share of
// the median traced total, in call order.
func printStages(w io.Writer, spans []span, root string) {
	self := selfTimes(spans)
	order := map[string]float64{}
	for _, s := range spans {
		if _, ok := order[s.Name]; !ok {
			order[s.Name] = s.StartUS
		}
	}
	var totals []float64
	for _, s := range spans {
		if s.Name == root {
			totals = append(totals, s.ms())
		}
	}
	total := median(totals)
	names := slices.SortedFunc(maps.Keys(self), func(a, b string) int { return cmp.Compare(order[a], order[b]) })
	fmt.Fprintf(w, " stages (median self time over %d traced requests; total %.1f ms):\n", len(totals), total)
	for _, n := range names {
		label := n
		if n == root {
			label = "(untraced remainder)"
		}
		ms := median(self[n])
		fmt.Fprintf(w, "  %-34s %10.2f ms %6.1f%%\n", label, ms, 100*ms/total)
	}
}

func writeSpans(path string, spans []span) error {
	buf, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
