// Package stats provides the small set of statistics helpers used by the
// trace-replay experiments: summary statistics over per-process samples,
// relative errors, and fixed-seed deterministic jitter sources.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by reductions over empty sample sets.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// Min returns the smallest element of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between closest ranks. It does not modify xs.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// RelErr returns the relative error of predicted with regard to reference,
// in percent: 100*(predicted-reference)/reference. A positive value means
// the prediction overestimates the reference.
func RelErr(predicted, reference float64) float64 {
	if reference == 0 {
		if predicted == 0 {
			return 0
		}
		return math.Inf(int(math.Copysign(1, predicted)))
	}
	return 100 * (predicted - reference) / reference
}

// Summary condenses a per-process sample distribution into the values the
// paper's box-plot style figures display.
type Summary struct {
	N      int
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
	Mean   float64
}

// Summarize computes a Summary over xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	var s Summary
	var err error
	s.N = len(xs)
	if s.Min, err = Min(xs); err != nil {
		return s, err
	}
	if s.Max, err = Max(xs); err != nil {
		return s, err
	}
	if s.Q1, err = Quantile(xs, 0.25); err != nil {
		return s, err
	}
	if s.Median, err = Quantile(xs, 0.5); err != nil {
		return s, err
	}
	if s.Q3, err = Quantile(xs, 0.75); err != nil {
		return s, err
	}
	if s.Mean, err = Mean(xs); err != nil {
		return s, err
	}
	return s, nil
}

// String renders the summary as "min/q1/med/q3/max (mean)" with two decimals.
func (s Summary) String() string {
	return fmt.Sprintf("%.2f/%.2f/%.2f/%.2f/%.2f (mean %.2f)",
		s.Min, s.Q1, s.Median, s.Q3, s.Max, s.Mean)
}
