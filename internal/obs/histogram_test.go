package obs_test

import (
	"math"
	"math/rand"
	"testing"

	"diversecast/internal/obs"
)

// newHist registers a fresh histogram on a private registry.
func newHist(lo, hi float64, bins int) *obs.Histogram {
	return obs.NewRegistry().Histogram("h", "", lo, hi, bins)
}

func TestHistogramValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		lo, hi float64
		bins   int
	}{
		{"hi == lo", 1, 1, 4},
		{"zero bins", 0, 1, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic at registration", tc.name)
				}
			}()
			newHist(tc.lo, tc.hi, tc.bins)
		}()
	}
}

func TestHistogramBinning(t *testing.T) {
	h := newHist(0, 10, 5)
	for _, x := range []float64{-1, 0, 1.9, 2, 5.5, 9.99, 10, 42} {
		h.Observe(x)
	}
	s := h.Snapshot()
	if s.Count != 8 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Under != 1 || s.Over != 2 {
		t.Fatalf("under/over = %d/%d", s.Under, s.Over)
	}
	if len(s.Bins) != 5 {
		t.Fatalf("%d bins, want 5", len(s.Bins))
	}
	wantBins := []int64{2, 1, 1, 0, 1} // [0,2): {0,1.9}, [2,4): {2}, [4,6): {5.5}, [8,10): {9.99}
	for i, want := range wantBins {
		if got := s.Bins[i]; got != want {
			t.Errorf("bin %d = %d, want %d", i, got, want)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHist(0, 100, 100)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		h.Observe(rng.Float64() * 100)
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		got := h.Quantile(q)
		if math.Abs(got-q*100) > 1.5 {
			t.Errorf("Quantile(%v) = %v, want ≈ %v", q, got, q*100)
		}
	}
	if h.Quantile(0) != 0 || h.Quantile(1) != 100 {
		t.Error("extreme quantiles should clamp to bounds")
	}
	if newHist(0, 1, 2).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile should return lo")
	}
}

// Quantile edge cases beyond the uniform sweep: degenerate mass
// placements that exercise the estimator's bin-walk boundary
// conditions.

// All mass in the first bin, empty trailing bins: high quantiles must
// interpolate inside the occupied bin, never skid into the empty tail
// or return hi.
func TestQuantileEmptyTrailingBins(t *testing.T) {
	h := newHist(0, 10, 5) // bins of width 2
	for i := 0; i < 10; i++ {
		h.Observe(1) // all in bin 0 = [0, 2)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		if got < 0 || got > 2 {
			t.Errorf("Quantile(%v) = %v, outside the only occupied bin [0,2)", q, got)
		}
	}
	if got := h.Quantile(1); got != 10 {
		t.Errorf("Quantile(1) = %v, want hi", got)
	}
}

// Mass exactly on bin boundaries: a value equal to a bin's lower edge
// belongs to that bin ([lo, hi) semantics), and the quantiles must
// stay within the occupied bins.
func TestQuantileMassOnBinBoundaries(t *testing.T) {
	h := newHist(0, 10, 5)
	for i := 0; i < 5; i++ {
		h.Observe(float64(2 * i)) // exactly on every bin's lower edge
	}
	for i, c := range h.Snapshot().Bins {
		if c != 1 {
			t.Fatalf("bin %d = %d, want exactly 1 (boundary values belong to the bin they open)", i, c)
		}
	}
	// The median of {0,2,4,6,8} sits in bin 2.
	if got := h.Quantile(0.5); got < 4 || got > 6 {
		t.Errorf("Quantile(0.5) = %v, want within [4,6)", got)
	}
	// The upper bound itself is overflow, not the last bin.
	h.Observe(10)
	if over := h.Snapshot().Over; over != 1 {
		t.Errorf("Observe(hi) landed in a bin; overflow = %d", over)
	}
}

// All-underflow input: every quantile collapses to lo.
func TestQuantileAllUnderflow(t *testing.T) {
	h := newHist(10, 20, 4)
	for i := 0; i < 7; i++ {
		h.Observe(-5)
	}
	if s := h.Snapshot(); s.Under != 7 || s.Count != 7 {
		t.Fatalf("underflow %d / count %d", s.Under, s.Count)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if got := h.Quantile(q); got != 10 {
			t.Errorf("Quantile(%v) = %v, want lo", q, got)
		}
	}
}

// All-overflow input: the bin walk finds no mass, so quantiles report
// hi (overflow mass is attributed to the upper bound).
func TestQuantileAllOverflow(t *testing.T) {
	h := newHist(0, 1, 3)
	for i := 0; i < 4; i++ {
		h.Observe(9)
	}
	for _, q := range []float64{0.25, 0.5, 0.99} {
		if got := h.Quantile(q); got != 1 {
			t.Errorf("Quantile(%v) = %v, want hi", q, got)
		}
	}
}

// Mixed underflow + bins: the underflow mass shifts the interpolation
// target but is pinned to lo when the quantile falls inside it.
func TestQuantileUnderflowThenBins(t *testing.T) {
	h := newHist(0, 10, 5)
	for i := 0; i < 5; i++ {
		h.Observe(-1) // underflow
	}
	for i := 0; i < 5; i++ {
		h.Observe(5) // bin 2
	}
	if got := h.Quantile(0.25); got != 0 {
		t.Errorf("Quantile inside underflow mass = %v, want lo", got)
	}
	if got := h.Quantile(0.9); got < 4 || got > 6 {
		t.Errorf("Quantile(0.9) = %v, want within bin [4,6)", got)
	}
}

// A single observation answers every interior quantile from its bin.
func TestQuantileSingleObservation(t *testing.T) {
	h := newHist(0, 8, 4)
	h.Observe(4.5) // bin 2 = [4, 6)
	for _, q := range []float64{0.001, 0.5, 0.999} {
		if got := h.Quantile(q); got < 4 || got > 6 {
			t.Errorf("Quantile(%v) = %v, want within [4,6)", q, got)
		}
	}
}
