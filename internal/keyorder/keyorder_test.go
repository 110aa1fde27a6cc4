package keyorder_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"diversecast/internal/core"
	"diversecast/internal/keyorder"
	"diversecast/internal/workload"
)

// path is one way to sort values by key.
type path struct {
	name string
	sort func([]int, func(int) uint64)
}

// paths are the three ways into the sort: the public entry point,
// which picks by size, and each path forced on any size.
var paths = []path{
	{"Stable", keyorder.Stable},
	{"insertion", keyorder.Insertion},
	{"radix", keyorder.Radix},
}

// sizes straddle the crossover; TestTable5CatalogOrders covers N=10⁴.
var sizes = []int{0, 1, 2, 3, 17, 120, keyorder.RadixMin - 1, keyorder.RadixMin, keyorder.RadixMin + 1, 1000, 4000}

// sanitize maps arbitrary bits into the keys' domain — +0, a positive
// float or +Inf — the way f/z lands there: a negative value loses its
// sign and a NaN overflows to +Inf.
func sanitize(bits uint64) float64 {
	x := math.Float64frombits(bits &^ (1 << 63))
	if math.IsNaN(x) {
		return math.Inf(1)
	}
	return x
}

// huge and tiny are variables so the quotients below round at run time
// the way an item's f/z does, instead of overflowing as constants.
var huge, tiny = 1e300, 1e-300

// extremes are the domain's edges, the values an f/z or f·z of valid
// items can round to.
var extremes = []float64{
	0,
	math.SmallestNonzeroFloat64,
	math.Float64frombits(1<<52 - 1), // largest subnormal
	0x1p-1022,                       // smallest normal
	1,
	math.MaxFloat64,
	math.Inf(1),
	huge / tiny, // f/z overflowing to +Inf
	tiny / huge, // f/z underflowing to 0
	tiny * tiny, // f·z underflowing to 0
	math.Nextafter(1, 2),
}

// values draws n keys' floats of one kind.
func values(kind string, rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch kind {
		case "random":
			x[i] = sanitize(rng.Uint64())
		case "unit":
			x[i] = rng.Float64()
		case "ties":
			x[i] = float64(1+rng.Intn(3)) / 4
		case "extreme":
			if rng.Intn(4) == 0 {
				x[i] = math.Float64frombits(uint64(rng.Int63n(1 << 52))) // subnormal or 0
			} else {
				x[i] = extremes[rng.Intn(len(extremes))]
			}
		default:
			panic(kind)
		}
	}
	return x
}

var kinds = []string{"random", "unit", "ties", "extreme"}

// reference is the comparison sort every call site ran before the key
// order: sort.SliceStable under the float comparison.
func reference(x []float64, vals []int, desc bool) []int {
	out := slices.Clone(vals)
	sort.SliceStable(out, func(a, b int) bool {
		if desc {
			return x[out[a]] > x[out[b]]
		}
		return x[out[a]] < x[out[b]]
	})
	return out
}

// checkPaths sorts vals (indices into x) through every path in both
// directions and fails on the first permutation that differs from
// the reference.
func checkPaths(t *testing.T, what string, x []float64, vals []int) {
	t.Helper()
	for _, desc := range []bool{false, true} {
		want := reference(x, vals, desc)
		key := func(v int) uint64 { return keyorder.Ascending(x[v]) }
		if desc {
			key = func(v int) uint64 { return keyorder.Descending(x[v]) }
		}
		for _, p := range paths {
			got := slices.Clone(vals)
			p.sort(got, key)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("%s desc=%v %s: n=%d, index %d: got %d (%v), sort.SliceStable %d (%v)",
					what, desc, p.name, len(vals), i, got[i], x[got[i]], want[i], x[want[i]])
			}
		}
	}
}

func firstDiff(a, b []int) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func iota(n int) []int {
	v := make([]int, n)
	for i := range v {
		v[i] = i
	}
	return v
}

// TestStableMatchesSliceStable is the differential test: on random,
// tie-heavy and extreme keys, at sizes across the crossover, every
// path returns sort.SliceStable's permutation, both on ascending
// positions (the call sites' input) and on shuffled ones, where only
// a stable sort keeps the input order of ties.
func TestStableMatchesSliceStable(t *testing.T) {
	for _, kind := range kinds {
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(int64(n) + 1))
			x := values(kind, rng, n)
			vals := iota(n)
			checkPaths(t, fmt.Sprintf("%s/ascending", kind), x, vals)
			rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			checkPaths(t, fmt.Sprintf("%s/shuffled", kind), x, vals)
		}
	}
}

// TestKeysOrderLikeFloats pins the key maps on the domain's edges:
// both orders are strict exactly where the floats are, including
// subnormals, MaxFloat64, +Inf and 0.
func TestKeysOrderLikeFloats(t *testing.T) {
	for _, a := range extremes {
		for _, b := range extremes {
			if got, want := keyorder.Ascending(a) < keyorder.Ascending(b), a < b; got != want {
				t.Errorf("Ascending(%v) < Ascending(%v) = %v, want %v", a, b, got, want)
			}
			if got, want := keyorder.Descending(a) < keyorder.Descending(b), a > b; got != want {
				t.Errorf("Descending(%v) < Descending(%v) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// TestTable5CatalogOrders runs the call sites on the paper's Table 5
// catalog at the serve and plan shapes: ByBenefitRatio and ByFreq
// equal sort.SliceStable's permutation over the same float compares.
func TestTable5CatalogOrders(t *testing.T) {
	for _, n := range []int{120, 10000} {
		db, err := workload.Config{N: n, Theta: 0.8, Phi: 2, Seed: 1}.Generate()
		if err != nil {
			t.Fatal(err)
		}
		br := make([]float64, n)
		freq := make([]float64, n)
		for i := range br {
			br[i] = db.Item(i).BenefitRatio()
			freq[i] = db.Item(i).Freq
		}
		if got, want := db.ByBenefitRatio(), reference(br, iota(n), true); !slices.Equal(got, want) {
			t.Errorf("N=%d ByBenefitRatio differs from sort.SliceStable at index %d", n, firstDiff(got, want))
		}
		if got, want := db.ByFreq(), reference(freq, iota(n), true); !slices.Equal(got, want) {
			t.Errorf("N=%d ByFreq differs from sort.SliceStable at index %d", n, firstDiff(got, want))
		}
		checkPaths(t, fmt.Sprintf("table5/N=%d/br", n), br, iota(n))
	}
}

// TestExtremeDatabaseOrders: on items whose f/z overflows to +Inf,
// underflows to 0 or is subnormal, ByBenefitRatio still equals the
// comparison sort.
func TestExtremeDatabaseOrders(t *testing.T) {
	sizes := []float64{math.SmallestNonzeroFloat64, 1e-300, 1, 1e300, math.MaxFloat64}
	var items []core.Item
	for _, f := range sizes {
		for _, z := range sizes {
			items = append(items, core.Item{ID: len(items), Freq: f, Size: z})
		}
	}
	for len(items) < keyorder.RadixMin+5 {
		it := items[len(items)%25]
		it.ID = len(items)
		items = append(items, it)
	}
	for _, n := range []int{25, len(items)} {
		db := core.MustNewDatabase(items[:n])
		br := make([]float64, n)
		for i := range br {
			br[i] = db.Item(i).BenefitRatio()
		}
		if got, want := db.ByBenefitRatio(), reference(br, iota(n), true); !slices.Equal(got, want) {
			t.Errorf("N=%d ByBenefitRatio differs from sort.SliceStable at index %d", n, firstDiff(got, want))
		}
	}
}

// FuzzStable feeds every path keys taken from raw bytes (eight per
// key, mapped into the domain), topped up to a fuzzed size from a
// seeded generator of one kind, so inputs cross the crossover.
func FuzzStable(f *testing.F) {
	f.Add(uint8(0), int64(1), uint16(10), false, []byte{})
	f.Add(uint8(1), int64(2), uint16(keyorder.RadixMin+3), true, []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add(uint8(2), int64(3), uint16(600), true, []byte{1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(3), int64(4), uint16(keyorder.RadixMin-1), false, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f})
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, rawN uint16, desc bool, raw []byte) {
		n := int(rawN) % 1500
		x := make([]float64, 0, n+len(raw)/8)
		for ; len(raw) >= 8; raw = raw[8:] {
			x = append(x, sanitize(binary.LittleEndian.Uint64(raw)))
		}
		if len(x) < n {
			x = append(x, values(kinds[int(kind)%len(kinds)], rand.New(rand.NewSource(seed)), n-len(x))...)
		}
		vals := iota(len(x))
		want := reference(x, vals, desc)
		key := func(v int) uint64 { return keyorder.Ascending(x[v]) }
		if desc {
			key = func(v int) uint64 { return keyorder.Descending(x[v]) }
		}
		for _, p := range paths {
			got := slices.Clone(vals)
			p.sort(got, key)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("desc=%v %s: n=%d, index %d: got %d (%v), sort.SliceStable %d (%v)",
					desc, p.name, len(x), i, got[i], x[got[i]], want[i], x[want[i]])
			}
		}
	})
}

// BenchmarkCrossover times each path, and the sort.SliceStable call
// it replaced, on n descending keys of two kinds: uniformly random
// floats, and the Table 5 catalog's benefit ratios in position order
// (positions follow Zipf rank, so that input is already partly in
// order). DESIGN §11 records where the paths cross.
func BenchmarkCrossover(b *testing.B) {
	for _, n := range []int{8, 20, 64, 96, 128, 160, 192, 224, 256, 384} {
		db, err := workload.Config{N: n, Theta: 0.8, Phi: 2, Seed: 1}.Generate()
		if err != nil {
			b.Fatal(err)
		}
		catalog := make([]float64, n)
		for i := range catalog {
			catalog[i] = db.Item(i).BenefitRatio()
		}
		for _, in := range []struct {
			name string
			x    []float64
		}{
			{"random", values("unit", rand.New(rand.NewSource(1)), n)},
			{"catalog", catalog},
		} {
			x := in.x
			key := func(v int) uint64 { return keyorder.Descending(x[v]) }
			comparison := path{"SliceStable", func(vals []int, _ func(int) uint64) {
				sort.SliceStable(vals, func(a, b int) bool { return x[vals[a]] > x[vals[b]] })
			}}
			for _, p := range []path{paths[1], paths[2], comparison} {
				b.Run(fmt.Sprintf("%s/%s/n=%d", in.name, p.name, n), func(b *testing.B) {
					vals := make([]int, n)
					for i := 0; i < b.N; i++ {
						for j := range vals {
							vals[j] = j
						}
						p.sort(vals, key)
					}
				})
			}
		}
	}
}
