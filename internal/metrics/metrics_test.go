package metrics

import (
	"sync"
	"testing"
)

type inner struct {
	Hits    int64
	Entries int64 `metrics:"gauge"`
}

type counters struct {
	Solves int
	Pivots int32
	Inner  inner
}

func TestDelta(t *testing.T) {
	now := counters{Solves: 7, Pivots: 40, Inner: inner{Hits: 5, Entries: 3}}
	since := counters{Solves: 2, Pivots: 15, Inner: inner{Hits: 1, Entries: 9}}
	want := counters{Solves: 5, Pivots: 25, Inner: inner{Hits: 4, Entries: 3}}
	if got := Delta(now, since); got != want {
		t.Errorf("Delta = %+v, want %+v", got, want)
	}
}

func TestSumConcurrentAdds(t *testing.T) {
	var s Sum[counters]
	const workers, adds = 4, 250
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range adds {
				s.Add(counters{Solves: 1, Pivots: 2, Inner: inner{Hits: 3, Entries: 1}})
				_ = s.Load()
			}
		}()
	}
	wg.Wait()
	n := workers * adds
	want := counters{Solves: n, Pivots: int32(2 * n), Inner: inner{Hits: int64(3 * n), Entries: int64(n)}}
	if got := s.Load(); got != want {
		t.Errorf("Load = %+v, want %+v", got, want)
	}
}

func TestUnsupportedFieldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Delta over a float field did not panic")
		}
	}()
	Delta(struct{ X float64 }{1}, struct{ X float64 }{0})
}

// BenchmarkFlush measures one revised-solver flush: the 14-field delta of
// two snapshots plus its addition to a process-wide Sum.
func BenchmarkFlush(b *testing.B) {
	type lpCounters struct {
		A, B, C, D, E, F, G, H, I, J, K, L, M, N int
	}
	var global Sum[lpCounters]
	now := lpCounters{A: 3, B: 2, C: 1, E: 40, F: 12, I: 12, L: 1, M: 4}
	var since lpCounters
	for b.Loop() {
		global.Add(Delta(now, since))
	}
}
