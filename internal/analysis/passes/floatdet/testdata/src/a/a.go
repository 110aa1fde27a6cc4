// Corpus for floatdet: float accumulation under map iteration.
package a

import "sort"

// Flagged: the PR-1 class — a grouping-cost sum accumulated in map
// order drifts run to run and breaks reconciliation against Cost().
func costOverMap(groups map[int]float64) float64 {
	var total float64
	for _, c := range groups {
		total += c // want `ranging over a map`
	}
	return total
}

// Flagged: spelled-out accumulation form.
func spelledOut(m map[string]float64) float64 {
	sum := 0.0
	for _, v := range m {
		sum = sum + v // want `ranging over a map`
	}
	return sum
}

// Flagged: accumulation into a struct field that outlives the loop.
type agg struct{ f float64 }

func intoField(m map[int]float64) agg {
	var a agg
	for _, v := range m {
		a.f += v // want `ranging over a map`
	}
	return a
}

// Flagged: subtraction and multiplication are just as
// order-sensitive as addition.
func product(m map[int]float64) float64 {
	p := 1.0
	for _, v := range m {
		p *= v // want `ranging over a map`
	}
	return p
}

// Clean: integer accumulation is exact at any order.
func countOverMap(groups map[int]float64) int {
	n := 0
	for range groups {
		n++
	}
	return n
}

// Clean: the sorted-keys idiom the diagnostic recommends.
func costSorted(groups map[int]float64) float64 {
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var total float64
	for _, k := range keys {
		total += groups[k]
	}
	return total
}

// Clean: per-key accumulation is deterministic per entry.
func perKey(src map[int]float64, dst map[int]float64) {
	for k, v := range src {
		dst[k] += v
	}
}

// Clean: accumulator declared inside the loop does not carry across
// iterations.
func scratch(m map[int][2]float64) []float64 {
	var out []float64
	for _, pair := range m {
		s := 0.0
		s += pair[0]
		s += pair[1]
		out = append(out, s)
	}
	return out
}

// Clean: ranging over a slice is ordered.
func costOverSlice(groups []float64) float64 {
	var total float64
	for _, c := range groups {
		total += c
	}
	return total
}

// Clean: accumulation inside a function literal runs on the
// closure's schedule, not per iteration.
func deferredWork(m map[int]float64) []func() {
	var fns []func()
	var total float64
	for _, v := range m {
		v := v
		fns = append(fns, func() { total += v })
	}
	return fns
}

// Flagged: a key-only range still sums in map order — here a mass
// summed over a position→index map instead of sorted positions.
func pushMass(pushIndex map[int]int, freq []float64) float64 {
	var mass float64
	for pos := range pushIndex {
		mass += freq[pos] // want `ranging over a map`
	}
	return mass
}
