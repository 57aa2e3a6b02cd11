package core

import (
	"math"
	"testing"

	"gridmtd/internal/grid"
)

// estStatsDelta runs fn and returns the change in the process-wide
// estimator-cache counters it caused.
func estStatsDelta(fn func()) EstimatorCacheStats {
	before := GlobalEstimatorCacheStats()
	fn()
	after := GlobalEstimatorCacheStats()
	return EstimatorCacheStats{
		Hits:       after.Hits - before.Hits,
		Misses:     after.Misses - before.Misses,
		FastBuilds: after.FastBuilds - before.FastBuilds,
		FullQRs:    after.FullQRs - before.FullQRs,
	}
}

// TestEstimatorCacheHitMissEvict pins the cache mechanics: bitwise-keyed
// hits return the identical estimator, distinct settings miss through the
// factory's fast build, eviction drops the least recently used entry, and
// a foreign network bypasses the cache with a full QR.
func TestEstimatorCacheHitMissEvict(t *testing.T) {
	n, err := grid.CaseByName("ieee57")
	if err != nil {
		t.Fatal(err)
	}
	c := NewEstimatorCache(n, 2)
	lo, hi := n.DFACTSBounds()
	setting := func(f float64) []float64 {
		xd := make([]float64, len(lo))
		for i := range xd {
			xd[i] = lo[i] + f*(hi[i]-lo[i])
		}
		return n.ExpandDFACTS(xd)
	}
	x1, x2, x3 := setting(0.25), setting(0.5), setting(0.75)

	var e1 any
	d := estStatsDelta(func() {
		est, err := c.Get(n, x1)
		if err != nil {
			t.Fatal(err)
		}
		e1 = est
	})
	if d.Misses != 1 || d.Hits != 0 || d.FastBuilds != 1 || d.FullQRs != 0 {
		t.Fatalf("first Get: %+v; want 1 miss served by the fast build", d)
	}
	d = estStatsDelta(func() {
		est, err := c.Get(n, x1)
		if err != nil {
			t.Fatal(err)
		}
		if any(est) != e1 {
			t.Fatal("hit returned a different estimator instance")
		}
	})
	if d.Hits != 1 || d.Misses != 0 || d.FastBuilds != 0 || d.FullQRs != 0 {
		t.Fatalf("repeat Get: %+v; want a pure hit", d)
	}
	d = estStatsDelta(func() {
		if _, err := c.Get(n, x2); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(n, x3); err != nil { // evicts x1 (cap 2)
			t.Fatal(err)
		}
		if _, err := c.Get(n, x1); err != nil { // rebuilt after eviction
			t.Fatal(err)
		}
	})
	if d.Misses != 3 || d.FastBuilds != 3 {
		t.Fatalf("evict sequence: %+v; want 3 fast-build misses", d)
	}

	other, err := grid.CaseByName("ieee14")
	if err != nil {
		t.Fatal(err)
	}
	d = estStatsDelta(func() {
		if _, err := c.Get(other, other.Reactances()); err != nil {
			t.Fatal(err)
		}
	})
	if d.Misses != 1 || d.FullQRs != 1 || d.FastBuilds != 0 {
		t.Fatalf("foreign network: %+v; want an uncached full QR", d)
	}
}

// TestEvaluateAttacksWithEstimatorCache is the end-to-end agreement bar on
// a fast (sparse-backend) set under ReportProbs, which takes the estimator
// rather than the residual kernel: injecting the cache must leave η′(δ),
// the undetectable fraction and γ within 1e-9 of the uncached path, and
// repeat evaluations of the same candidate must hit the cache.
func TestEvaluateAttacksWithEstimatorCache(t *testing.T) {
	n, err := grid.CaseByName("ieee118")
	if err != nil {
		t.Fatal(err)
	}
	xOld := n.Reactances()
	zOld, err := OperatingMeasurements(n, xOld)
	if err != nil {
		t.Fatal(err)
	}
	cfg := EffectivenessConfig{NumAttacks: 100, Seed: 5, ReportProbs: true}
	set, err := SampleAttacks(n, xOld, zOld, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !set.fast {
		t.Fatal("ieee118 attack set is not fast; the cache gate would never open")
	}
	cached := cfg
	cached.Estimators = NewEstimatorCache(n, 0)
	for pi, xd := range backendTestPoints(n) {
		xNew := n.ExpandDFACTS(xd)
		want, err := EvaluateAttacks(n, set, xNew, cfg)
		if err != nil {
			t.Fatalf("point %d (uncached): %v", pi, err)
		}
		var got *EffectivenessResult
		d := estStatsDelta(func() {
			got, err = EvaluateAttacks(n, set, xNew, cached)
			if err != nil {
				t.Fatalf("point %d (cached): %v", pi, err)
			}
		})
		if d.Misses != 1 || d.Hits != 0 {
			t.Fatalf("point %d: first cached eval %+v; want one miss", pi, d)
		}
		for i := range want.Eta {
			if math.Abs(got.Eta[i]-want.Eta[i]) > 1e-9 {
				t.Errorf("point %d: η′(%.2f) cached %v != %v", pi, want.Deltas[i], got.Eta[i], want.Eta[i])
			}
		}
		if math.Abs(got.UndetectableFraction-want.UndetectableFraction) > 1e-9 {
			t.Errorf("point %d: undetectable cached %v != %v", pi, got.UndetectableFraction, want.UndetectableFraction)
		}
		if math.Abs(got.Gamma-want.Gamma) > 1e-9 {
			t.Errorf("point %d: γ cached %v != %v", pi, got.Gamma, want.Gamma)
		}
		d = estStatsDelta(func() {
			if _, err := EvaluateAttacks(n, set, xNew, cached); err != nil {
				t.Fatalf("point %d (repeat): %v", pi, err)
			}
		})
		if d.Hits != 1 || d.Misses != 0 {
			t.Fatalf("point %d: repeat cached eval %+v; want one hit", pi, d)
		}
	}
}
