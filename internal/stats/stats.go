// Package stats provides the statistical utilities the evaluation
// harness needs: five-number summaries for the paper's box-whisker
// latency plots (Figs 7, 8) and a zero-phase Butterworth low-pass filter
// reproducing the SciPy filtfilt smoothing applied to the loss curves of
// Fig 11.
package stats

import (
	"math"
	"sort"
)

// Summary is a five-number summary plus mean and tail quantile — one
// box of a box-whisker plot. P99 serves the straggler detector's
// thresholds and histogram sanity checks; at small N it interpolates
// toward (and at N == 1 equals) the maximum.
type Summary struct {
	Min, P25, Median, P75, P99, Max, Mean float64
	N                                     int
}

// Summarize computes the summary of samples (which it sorts a copy of).
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	return Summary{
		Min:    s[0],
		P25:    quantile(s, 0.25),
		Median: quantile(s, 0.5),
		P75:    quantile(s, 0.75),
		P99:    quantile(s, 0.99),
		Max:    s[len(s)-1],
		Mean:   sum / float64(len(s)),
		N:      len(s),
	}
}

// quantile linearly interpolates the q-quantile of sorted data.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
