package obs

import (
	"math"
	"sync/atomic"
)

// Histogram counts observations in fixed-width bins over [Lo, Hi);
// out-of-range observations land in underflow/overflow counters. It
// mirrors the bin and quantile semantics of internal/stats.Histogram
// exactly (the simulators' reporting shape) but every write is a
// single atomic add, so it is safe on hot concurrent paths.
type Histogram struct {
	lo, hi  float64
	binSize float64
	bins    []atomic.Int64
	under   atomic.Int64
	over    atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// newHistogram builds a histogram with the given bounds and bin
// count. Registries construct histograms; invalid shapes are a
// programming error and panic at registration time.
func newHistogram(lo, hi float64, bins int) *Histogram {
	if !(hi > lo) {
		panic("obs: histogram needs hi > lo")
	}
	if bins < 1 {
		panic("obs: histogram needs at least one bin")
	}
	return &Histogram{lo: lo, hi: hi, bins: make([]atomic.Int64, bins), binSize: (hi - lo) / float64(bins)}
}

// Observe records one value.
//
//diverselint:hotpath per-sample histogram record
func (h *Histogram) Observe(x float64) {
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + x)
		if h.sumBits.CompareAndSwap(old, nw) {
			break
		}
	}
	switch {
	case x < h.lo:
		h.under.Add(1)
	case x >= h.hi:
		h.over.Add(1)
	default:
		idx := int((x - h.lo) / h.binSize)
		if idx >= len(h.bins) { // guard float edge at exactly hi-ε
			idx = len(h.bins) - 1
		}
		h.bins[idx].Add(1)
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bounds returns the histogram range [lo, hi).
func (h *Histogram) Bounds() (lo, hi float64) { return h.lo, h.hi }

// Bins reports the bin count.
func (h *Histogram) Bins() int { return len(h.bins) }

// Quantile returns an approximation of the q-quantile (0 ≤ q ≤ 1)
// assuming observations are uniform within each bin — the same
// estimator as stats.Histogram.Quantile. Underflow mass is attributed
// to lo and overflow to hi. Under concurrent writers the result is a
// consistent-enough approximation, not a linearizable snapshot.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || q <= 0 {
		return h.lo
	}
	if q >= 1 {
		return h.hi
	}
	target := q * float64(total)
	cum := float64(h.under.Load())
	if cum >= target {
		return h.lo
	}
	for i := range h.bins {
		c := h.bins[i].Load()
		next := cum + float64(c)
		if next >= target && c > 0 {
			frac := (target - cum) / float64(c)
			return h.lo + (float64(i)+frac)*h.binSize
		}
		cum = next
	}
	return h.hi
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Lo, Hi float64
	Bins   []int64
	Under  int64
	Over   int64
	Count  int64
	Sum    float64
}

// Snapshot copies the current state for inspection in tests.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Lo:    h.lo,
		Hi:    h.hi,
		Bins:  make([]int64, len(h.bins)),
		Under: h.under.Load(),
		Over:  h.over.Load(),
		Count: h.count.Load(),
		Sum:   h.Sum(),
	}
	for i := range h.bins {
		s.Bins[i] = h.bins[i].Load()
	}
	return s
}
