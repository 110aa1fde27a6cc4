package keyorder

// RadixMin, Insertion and Radix expose Stable's crossover and its two
// paths so the differential tests can drive each path on any size.
const RadixMin = radixMin

func Insertion(vals []int, key func(int) uint64) {
	insertion(vals, make([]uint64, len(vals)), key)
}

func Radix(vals []int, key func(int) uint64) { radix(vals, key) }
