package loadprofile

import (
	"math"
	"testing"
)

func TestNYWinterWeekdayShape(t *testing.T) {
	p := NYWinterWeekday()
	if len(p) != 24 {
		t.Fatalf("len = %d, want 24", len(p))
	}
	// Peak at 6 PM (index 17), normalized to 1.
	peak := 0
	for i, v := range p {
		if v > p[peak] {
			peak = i
		}
	}
	if peak != 17 {
		t.Errorf("peak at index %d (%s), want 17 (6PM)", peak, HourLabel(peak))
	}
	if p[peak] != 1.0 {
		t.Errorf("peak value %v, want 1.0", p[peak])
	}
	// Overnight trough around 60-70%.
	if p[2] < 0.55 || p[2] > 0.75 {
		t.Errorf("3AM factor %v outside winter trough range", p[2])
	}
	for i, v := range p {
		if v <= 0 || v > 1 {
			t.Errorf("factor[%d] = %v outside (0, 1]", i, v)
		}
	}
}

func TestHourLabel(t *testing.T) {
	if HourLabel(0) != "1AM" || HourLabel(17) != "6PM" || HourLabel(23) != "12AM" {
		t.Error("labels wrong")
	}
	if HourLabel(-1) != "?" || HourLabel(24) != "?" {
		t.Error("out-of-range labels should be ?")
	}
}

func TestScaleToPeak(t *testing.T) {
	factors, err := ScaleToPeak(NYWinterWeekday(), 259, 220)
	if err != nil {
		t.Fatal(err)
	}
	// Max scaled total = 220 MW.
	maxTotal := 0.0
	minTotal := math.Inf(1)
	for _, f := range factors {
		total := 259 * f
		if total > maxTotal {
			maxTotal = total
		}
		if total < minTotal {
			minTotal = total
		}
	}
	if math.Abs(maxTotal-220) > 1e-9 {
		t.Errorf("peak total %v, want 220", maxTotal)
	}
	// The paper's Fig. 10 trough is ~140 MW.
	if minTotal < 130 || minTotal > 150 {
		t.Errorf("trough total %v, want ~140", minTotal)
	}
}

func TestScaleToPeakErrors(t *testing.T) {
	if _, err := ScaleToPeak(nil, 100, 100); err == nil {
		t.Error("expected error for empty shape")
	}
	if _, err := ScaleToPeak([]float64{1}, 0, 100); err == nil {
		t.Error("expected error for zero base")
	}
	if _, err := ScaleToPeak([]float64{1}, 100, 0); err == nil {
		t.Error("expected error for zero peak")
	}
	if _, err := ScaleToPeak([]float64{1, -1}, 100, 100); err == nil {
		t.Error("expected error for negative factor")
	}
}
