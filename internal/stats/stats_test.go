package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if s := a.Summarize(); s.N != 0 || s.Mean != 0 || s.StdDev != 0 || s.Min != 0 || s.Max != 0 {
		t.Fatalf("zero-value accumulator should summarize to zeros, got %+v", s)
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	s := a.Summarize()
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", a.Mean())
	}
	// Population variance of this classic set is 4; sample variance
	// is 32/7.
	if math.Abs(a.Variance()-32.0/7) > 1e-12 {
		t.Fatalf("variance = %v, want %v", a.Variance(), 32.0/7)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
}

func TestSingleObservation(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Variance() != 0 || a.StdDev() != 0 {
		t.Fatal("single observation must have zero variance")
	}
	s := a.Summarize()
	if s.CI95 != 0 {
		t.Fatal("single observation must have zero CI")
	}
	if s.Mean != 3.5 || s.Min != 3.5 || s.Max != 3.5 {
		t.Fatalf("summary = %+v", s)
	}
}

// Property: streaming results match the two-pass formulas.
func TestAccumulatorMatchesTwoPass(t *testing.T) {
	check := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) / 16
		}
		var a Accumulator
		for _, x := range xs {
			a.Add(x)
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(len(xs)-1)
		scale := 1 + math.Abs(variance)
		return math.Abs(a.Mean()-mean) < 1e-9*(1+math.Abs(mean)) &&
			math.Abs(a.Variance()-variance) < 1e-9*scale
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryString(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{1, 2, 3} {
		a.Add(x)
	}
	str := a.Summarize().String()
	if !strings.Contains(str, "n=3") || !strings.Contains(str, "mean=2") {
		t.Fatalf("summary string %q lacks fields", str)
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("RelativeError(110,100) = %v", got)
	}
	if got := RelativeError(90, 100); math.Abs(got+0.1) > 1e-12 {
		t.Fatalf("RelativeError(90,100) = %v", got)
	}
	if got := RelativeError(0, 0); got != 0 {
		t.Fatalf("RelativeError(0,0) = %v", got)
	}
	if got := RelativeError(1, 0); !math.IsInf(got, 1) {
		t.Fatalf("RelativeError(1,0) = %v", got)
	}
}

// A constant input summarizes to its value with zero spread.
func TestSummarizeConstantInput(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{5, 5, 5} {
		a.Add(x)
	}
	s := a.Summarize()
	if s.N != 3 || s.Mean != 5 || s.StdDev != 0 || s.CI95 != 0 || s.Min != 5 || s.Max != 5 {
		t.Fatalf("summary = %+v", s)
	}
}
