// Package loadprofile provides the hourly load traces that drive the
// dynamic-load experiments. The paper feeds a New York state trace
// (25-JAN-2016, hourly) to the IEEE 14-bus system; that file is not
// redistributable, so NYWinterWeekday embeds a synthetic winter-weekday
// shape with the same structure (overnight trough ~64% of peak, morning
// ramp, evening peak at 6 PM) — the properties Figs. 9-11 actually depend
// on (temporal correlation and a load level that modulates congestion).
package loadprofile

import "errors"

// NYWinterWeekday returns 24 hourly load factors normalized to peak = 1,
// index 0 = 1 AM through index 23 = midnight, shaped like a New York
// January weekday (cf. the paper's Fig. 10 trace): flat overnight trough,
// morning ramp to a late-morning plateau, evening peak at 6 PM.
func NYWinterWeekday() []float64 {
	return []float64{
		0.68, 0.65, 0.64, 0.64, 0.66, 0.71, // 1 AM - 6 AM
		0.78, 0.83, 0.86, 0.88, 0.89, 0.89, // 7 AM - 12 PM
		0.88, 0.87, 0.87, 0.89, 0.95, 1.00, // 1 PM - 6 PM
		0.99, 0.97, 0.94, 0.89, 0.82, 0.74, // 7 PM - 12 AM
	}
}

// HourLabel returns a clock label ("1AM" ... "12AM") for an index into a
// 24-hour profile.
func HourLabel(i int) string {
	labels := []string{
		"1AM", "2AM", "3AM", "4AM", "5AM", "6AM",
		"7AM", "8AM", "9AM", "10AM", "11AM", "12PM",
		"1PM", "2PM", "3PM", "4PM", "5PM", "6PM",
		"7PM", "8PM", "9PM", "10PM", "11PM", "12AM",
	}
	if i < 0 || i >= len(labels) {
		return "?"
	}
	return labels[i]
}

// ScaleToPeak rescales a normalized shape so that applying the factors to a
// system with base total load baseTotalMW yields the given peak total load.
// E.g. the paper's Fig. 10 swings the 14-bus system (259 MW base) between
// ~140 and ~220 MW: ScaleToPeak(NYWinterWeekday(), 259, 220).
func ScaleToPeak(shape []float64, baseTotalMW, peakTotalMW float64) ([]float64, error) {
	if baseTotalMW <= 0 || peakTotalMW <= 0 {
		return nil, errors.New("loadprofile: totals must be positive")
	}
	if len(shape) == 0 {
		return nil, errors.New("loadprofile: empty shape")
	}
	maxShape := shape[0]
	for _, v := range shape {
		if v <= 0 {
			return nil, errors.New("loadprofile: shape factors must be positive")
		}
		if v > maxShape {
			maxShape = v
		}
	}
	k := peakTotalMW / (baseTotalMW * maxShape)
	out := make([]float64, len(shape))
	for i, v := range shape {
		out[i] = v * k
	}
	return out, nil
}
