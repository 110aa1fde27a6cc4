// Package stats provides the summary statistics the experiment harness
// and simulators report: streaming accumulators (Welford) and
// summaries with confidence intervals.
package stats

import (
	"fmt"
	"math"
)

// Accumulator computes count, mean and variance in one streaming pass
// using Welford's algorithm. The zero value is ready to use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add observes one value.
func (a *Accumulator) Add(x float64) {
	if a.n == 0 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	a.n++
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Mean returns the running mean (0 with no observations).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 for fewer than two
// observations).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Summary snapshots an accumulator.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	// CI95 is the half-width of the normal-approximation 95%
	// confidence interval of the mean.
	CI95 float64
}

// Summarize snapshots the accumulator's statistics.
func (a *Accumulator) Summarize() Summary {
	s := Summary{N: a.n, Mean: a.Mean(), StdDev: a.StdDev(), Min: a.min, Max: a.max}
	if a.n > 1 {
		s.CI95 = 1.96 * s.StdDev / math.Sqrt(float64(a.n))
	}
	return s
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g (sd=%.3g, min=%.4g, max=%.4g)",
		s.N, s.Mean, s.CI95, s.StdDev, s.Min, s.Max)
}

// RelativeError returns (got-want)/want; it is how EXPERIMENTS.md
// reports heuristic gaps versus the optimum reference.
func RelativeError(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (got - want) / want
}
