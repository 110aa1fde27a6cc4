// Package keyorder orders database positions by precomputed 64-bit
// keys in O(n): the stable sort behind the planners' benefit-ratio,
// frequency, mass and slot orders.
//
// A call site maps each value it orders to a key once — Ascending and
// Descending turn a non-negative float into one — and Stable orders the
// values by ascending key. Values with equal keys keep their input
// order, so on input in ascending position the result is the
// permutation sort.SliceStable returns for the same float comparison,
// bit for bit.
package keyorder

import "math"

// radixMin is the crossover between Stable's two paths: below it an
// insertion sort over the keys beats the radix sort's fixed cost of
// 8×256 counters and their prefix sums. DESIGN §11 holds the
// measurements it was chosen from.
const radixMin = 160

// Ascending returns the key that orders x ascending. x must be +0, a
// positive float or +Inf: on those the IEEE-754 bit pattern, read as
// an unsigned integer, orders like the value.
func Ascending(x float64) uint64 { return math.Float64bits(x) }

// Descending returns the key that orders x descending, under the same
// domain as Ascending: the complemented bit pattern.
func Descending(x float64) uint64 { return ^math.Float64bits(x) }

// Stable sorts vals by ascending key(v), keeping values with equal keys
// in their input order. key is called once per value. It runs an
// insertion sort below radixMin values and an LSD radix sort, one byte
// per pass, from there on.
func Stable(vals []int, key func(v int) uint64) {
	if len(vals) < radixMin {
		var keys [radixMin]uint64
		insertion(vals, keys[:len(vals)], key)
		return
	}
	radix(vals, key)
}

// insertion is Stable's small-input path; keys is scratch of len(vals).
// A value moves left only past strictly greater keys, so ties keep
// their input order.
func insertion(vals []int, keys []uint64, key func(int) uint64) {
	for i, v := range vals {
		k := key(v)
		j := i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j], vals[j] = keys[j-1], vals[j-1]
		}
		keys[j], vals[j] = k, v
	}
}

// entry carries a value with its key through the radix passes.
type entry struct {
	key uint64
	val int
}

// radix is Stable's large-input path: one counting pass builds all
// eight byte histograms, then each byte, least significant first,
// scatters the values in input order into its buckets — a stable pass,
// so the passes compose into a stable sort. A byte every key shares
// would scatter the values onto themselves, so its pass is skipped.
// The passes ping-pong between two layouts: vals beside a key array,
// and one array of (key, value) pairs. That is 24 bytes of scratch per
// value, where two pair arrays would take 32.
func radix(vals []int, key func(int) uint64) {
	n := len(vals)
	if n < 2 {
		return
	}
	keys := make([]uint64, n)
	var pairs []entry
	var count [8][256]int
	for i, v := range vals {
		k := key(v)
		keys[i] = k
		count[0][byte(k)]++
		count[1][byte(k>>8)]++
		count[2][byte(k>>16)]++
		count[3][byte(k>>24)]++
		count[4][byte(k>>32)]++
		count[5][byte(k>>40)]++
		count[6][byte(k>>48)]++
		count[7][byte(k>>56)]++
	}
	first := keys[0]
	inPairs := false
	for b := range count {
		c := &count[b]
		shift := 8 * uint(b)
		if c[byte(first>>shift)] == n {
			continue
		}
		// c[d] becomes the first slot of digit d's bucket.
		sum := 0
		for d, m := range c {
			c[d], sum = sum, sum+m
		}
		if inPairs {
			for _, e := range pairs {
				d := byte(e.key >> shift)
				j := c[d]
				keys[j], vals[j] = e.key, e.val
				c[d] = j + 1
			}
		} else {
			if pairs == nil {
				pairs = make([]entry, n)
			}
			vals := vals[:len(keys)]
			for i, k := range keys {
				d := byte(k >> shift)
				pairs[c[d]] = entry{k, vals[i]}
				c[d]++
			}
		}
		inPairs = !inPairs
	}
	if inPairs {
		for i, e := range pairs {
			vals[i] = e.val
		}
	}
}
