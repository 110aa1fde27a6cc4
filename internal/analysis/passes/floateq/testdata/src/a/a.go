// Corpus for floateq: exact equality between computed floats.
package a

import "math"

// Flagged: two independently computed costs will differ in the low
// bits; this comparison is silently always-false.
func costsMatch(a, b []float64) bool {
	return sum(a) == sum(b) // want `computed floating-point values`
}

// Flagged: != is the same trap.
func costsDiffer(x, y float64) bool {
	return x*3 != y*3 // want `computed floating-point values`
}

// Clean: epsilon comparison is the prescribed fix.
func costsClose(a, b []float64) bool {
	return math.Abs(sum(a)-sum(b)) <= 1e-9
}

// Clean: comparing against a constant sentinel (the "field unset"
// idiom of the config structs) is exact and deliberate.
func unset(timeScale float64) bool {
	return timeScale == 0
}

// Clean: constant on either side.
func isUnit(z float64) bool {
	return 1 != z && z == 2
}

// Clean: integer equality is exact.
func sameCount(n, m int) bool {
	return n == m
}

// Clean: ordering comparisons on floats are fine (they do not
// pretend to bit-exactness).
func better(got, best float64) bool {
	return got < best
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Seeds floateq-1 and floateq-2 (internal/analysis/testdata/mutations):
// a program validator checks each slot's start and the cycle length
// against the running sum of slot durations by == instead of within
// a relative tolerance. Programs built and read back in the tests
// reproduce the sums bit for bit, so nothing else notices.
func slotsConsistent(starts, durations []float64, cycle float64) bool {
	at := 0.0
	for i, s := range starts {
		if s != at { // want `computed floating-point values`
			return false
		}
		at += durations[i]
	}
	return cycle == at // want `computed floating-point values`
}
