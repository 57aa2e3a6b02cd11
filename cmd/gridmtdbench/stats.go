package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail latency may be printed at,
// highest first.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// minBeyond is how many samples must lie above a printed tail percentile.
const minBeyond = 10

// rank returns the 0-based nearest-rank index of quantile q in n sorted
// samples.
func rank(q float64, n int) int {
	k := int(math.Ceil(q*float64(n)-1e-9)) - 1
	return max(0, min(k, n-1))
}

// tailQuantile returns the highest percentile of tailLadder with at least
// minBeyond of n samples above it, falling back to the median when even
// the median has fewer.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if n-1-rank(q, n) >= minBeyond {
			return q
		}
	}
	return 0.50
}

// percentile returns the nearest-rank q-quantile of xs (which it sorts).
// It returns 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(q, len(xs))]
}

// median returns the middle of xs, averaging the two middle values of an
// even count (Python's statistics.median). It leaves xs as it was.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	xs = slices.Sorted(slices.Values(xs))
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns Q1, Q2 and Q3 of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method), so
// spreads printed here match the ones computed from the same values
// elsewhere. It leaves xs as it was.
func quartiles(xs []float64) [3]float64 {
	n := len(xs)
	var q [3]float64
	if n == 0 {
		return q
	}
	xs = slices.Sorted(slices.Values(xs))
	if n == 1 {
		return [3]float64{xs[0], xs[0], xs[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return q
}

// poissonSchedule returns the send offsets of a Poisson arrival process at
// rate requests per second over [0, d). The same rng state gives the same
// schedule.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// backlog answers how many requests of an open-loop schedule were due but
// not yet sent. due and sent are offsets from the schedule's start, each
// sorted ascending; a request never sent has no entry in sent.
type backlog struct {
	due, sent []time.Duration
}

func countUpTo(xs []time.Duration, t time.Duration) int {
	return sort.Search(len(xs), func(i int) bool { return xs[i] > t })
}

// at returns the backlog at offset t.
func (b backlog) at(t time.Duration) int {
	return countUpTo(b.due, t) - countUpTo(b.sent, t)
}

// max returns the largest backlog over the schedule. The backlog only
// rises when a request falls due, so checking it at every due time finds
// the maximum.
func (b backlog) max() int {
	m := 0
	for _, t := range b.due {
		m = max(m, b.at(t))
	}
	return m
}

// grows reports whether the backlog at end exceeds slack and every backlog
// of the first half of the schedule, up to mid. A generator and server
// that keep up drain between bursts, so the end looks like any earlier
// moment; ones that do not end further behind than they ever were.
func (b backlog) grows(mid, end time.Duration, slack int) bool {
	e := b.at(end)
	if e <= slack {
		return false
	}
	for _, t := range b.due {
		if t > mid {
			break
		}
		if b.at(t) >= e {
			return false
		}
	}
	return true
}

// counters flattens v (any value that marshals to a JSON object) into
// dotted numeric leaves: {"lp":{"solves":3}} becomes {"lp.solves": 3}.
// Non-numeric leaves are dropped.
func counters(v any) (map[string]float64, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var tree any
	if err := json.Unmarshal(buf, &tree); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	flatten("", tree, out)
	return out, nil
}

func flatten(prefix string, v any, out map[string]float64) {
	switch t := v.(type) {
	case map[string]any:
		for k, c := range t {
			if prefix != "" {
				k = prefix + "." + k
			}
			flatten(k, c, out)
		}
	case float64:
		out[prefix] = t
	}
}

// delta returns after − before for every key of after, keeping only
// non-zero differences.
func delta(after, before map[string]float64) map[string]float64 {
	d := map[string]float64{}
	for k, v := range after {
		if x := v - before[k]; x != 0 {
			d[k] = x
		}
	}
	return d
}

// msOf converts a duration to fractional milliseconds.
func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
