package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0.50}, {17, 0.50}, {20, 0.50}, {39, 0.50}, {40, 0.75}, {99, 0.75},
		{100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {13307, 0.99},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for q, want := range map[float64]float64{0.50: 50, 0.95: 95, 0.99: 99, 1: 100, 0.001: 1} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", q, got, want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs), the functions the spreads in BENCHMARK.json are
// judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		want   [3]float64
		median float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}, 5.5},
		{[]float64{3.1, 1.2, 5.5}, [3]float64{1.2, 3.1, 5.5}, 3.1},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}, 1.5},
		{[]float64{7}, [3]float64{7, 7, 7}, 7},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
		if m := median(c.xs); m != c.median {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.median)
		}
	}
}

func TestPoissonScheduleDeterministicPerSeed(t *testing.T) {
	const rate, d = 1000.0, 10 * time.Second
	a := poissonSchedule(rand.New(rand.NewSource(1)), rate, d)
	b := poissonSchedule(rand.New(rand.NewSource(1)), rate, d)
	c := poissonSchedule(rand.New(rand.NewSource(2)), rate, d)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave one schedule")
	}
	// 10 000 expected arrivals with a standard deviation of 100.
	if n := float64(len(a)); math.Abs(n-rate*d.Seconds()) > 400 {
		t.Errorf("%v arrivals at %v/s over %v", n, rate, d)
	}
	for i, off := range a {
		if off < 0 || off >= d || (i > 0 && off < a[i-1]) {
			t.Fatalf("offset %d = %v is out of order or outside [0, %v)", i, off, d)
		}
	}
}

func ms(xs ...float64) []time.Duration {
	out := make([]time.Duration, len(xs))
	for i, x := range xs {
		out[i] = time.Duration(x * float64(time.Millisecond))
	}
	return out
}

func TestBacklogAccounting(t *testing.T) {
	// Five requests fall due a millisecond apart; the fifth is never sent.
	b := backlog{due: ms(0, 1, 2, 3, 4), sent: ms(0, 1.5, 4, 4.5)}
	for _, c := range []struct {
		at   float64
		want int
	}{{0, 0}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {4.5, 1}, {10, 1}} {
		if got := b.at(ms(c.at)[0]); got != c.want {
			t.Errorf("backlog at %v ms = %d, want %d", c.at, got, c.want)
		}
	}
	if got := b.max(); got != 2 {
		t.Errorf("max backlog = %d, want 2", got)
	}
	if b.grows(ms(2)[0], ms(5)[0], 0) {
		t.Error("a backlog that fell from mid to end counts as growing")
	}

	// Requests due every millisecond, sent every two: the backlog grows.
	var due, sent []float64
	for i := 0; i < 100; i++ {
		due = append(due, float64(i))
		if i < 50 {
			sent = append(sent, float64(2*i))
		}
	}
	g := backlog{due: ms(due...), sent: ms(sent...)}
	if !g.grows(ms(50)[0], ms(100)[0], 4) {
		t.Errorf("half-rate sending does not count as growing (mid %d, end %d)", g.at(ms(50)[0]), g.at(ms(100)[0]))
	}
	if g.grows(ms(50)[0], ms(100)[0], 1000) {
		t.Error("a backlog within the slack counts as growing")
	}
}

func TestSummarizeLateness(t *testing.T) {
	samples := []sample{
		{due: ms(0)[0], sent: ms(0.5)[0], done: ms(1.5)[0], wasSent: true, answer: answer{source: "memo"}},
		{due: ms(1)[0], sent: ms(1.5)[0], done: ms(4)[0], wasSent: true, answer: answer{source: "computed", elapsedMS: 2}},
		{due: ms(2)[0], sent: ms(4)[0], done: ms(5)[0], wasSent: true, failure: "status 429"},
		{due: ms(3)[0]},
	}
	st := summarize(samples, ms(4)[0], 1000)
	if st.sent != 3 || st.ok != 2 || len(st.failures) != 1 {
		t.Fatalf("sent %d ok %d failures %d, want 3 2 1", st.sent, st.ok, len(st.failures))
	}
	if want := []float64{0.5, 0.5, 2}; !reflect.DeepEqual(st.lateMS, want) {
		t.Errorf("lateness %v, want %v", st.lateMS, want)
	}
	if want := []float64{1.5, 3}; !reflect.DeepEqual(st.latMS, want) {
		t.Errorf("latency from due %v, want %v", st.latMS, want)
	}
	// The memo answer's round trip counts whole; the computed answer's
	// 2.5 ms round trip less its 2 ms of planner time.
	if want := []float64{1, 0.5}; !reflect.DeepEqual(st.overhead, want) {
		t.Errorf("overhead %v, want %v", st.overhead, want)
	}
	if got := st.backlog.max(); got != 2 {
		t.Errorf("max backlog %d, want 2", got)
	}
}

func TestCounterDelta(t *testing.T) {
	type lp struct {
		Solves int `json:"solves"`
		Pivots int `json:"pivots"`
	}
	type stats struct {
		Hits int    `json:"hits"`
		LP   lp     `json:"lp"`
		Name string `json:"name"`
	}
	before, err := counters(stats{Hits: 2, LP: lp{Solves: 5, Pivots: 9}, Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]float64{"hits": 2, "lp.solves": 5, "lp.pivots": 9}; !reflect.DeepEqual(before, want) {
		t.Fatalf("counters = %v, want %v", before, want)
	}
	after, err := counters(stats{Hits: 2, LP: lp{Solves: 8, Pivots: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := delta(after, before), map[string]float64{"lp.solves": 3, "lp.pivots": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("delta = %v, want %v", got, want)
	}
}

func TestCheckerComparesAnswersToTheFirst(t *testing.T) {
	c := newChecker()
	first := `{"case":"ieee14","gamma":0.06,"eta":[0.5,1],"cache_hit":false,"source":"computed","elapsed_ms":7.5}`
	a, wrong := c.check("k", 0.05, []byte(first))
	if wrong != "" || a.source != "computed" || a.elapsedMS != 7.5 {
		t.Fatalf("first answer: %+v %q", a, wrong)
	}
	if _, wrong := c.check("k", 0.05, []byte(`{"case":"ieee14","gamma":0.06,"eta":[0.5,1],"cache_hit":true,"source":"memo","elapsed_ms":7.5}`)); wrong != "" {
		t.Errorf("a memo repeat is wrong: %s", wrong)
	}
	if _, wrong := c.check("k", 0.05, []byte(`{"case":"ieee14","gamma":0.06,"eta":[0.5,0.9],"source":"memo"}`)); wrong == "" {
		t.Error("a changed η′ passed")
	}
	if _, wrong := c.check("k", 0.05, []byte(`{"case":"ieee14","gamma":0.06,"eta":[0.5,1],"extra":1}`)); wrong == "" {
		t.Error("an extra field passed")
	}
	if _, wrong := c.check("low", 0.05, []byte(`{"gamma":0.047}`)); wrong == "" {
		t.Error("a selection below γ_th − 2e-3 passed")
	}
	if _, wrong := c.check("tol", 0.05, []byte(`{"gamma":0.0481}`)); wrong != "" {
		t.Errorf("a selection within tolerance is wrong: %s", wrong)
	}
}
