package core

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// bigSum is the reference for the exact group sums: the values added
// at a precision that holds any sum of float64s exactly, then rounded
// once to the nearest float64, ties to even.
func bigSum(xs []float64) float64 {
	s := new(big.Float).SetPrec(2200)
	for _, x := range xs {
		s.Add(s, new(big.Float).SetPrec(2200).SetFloat64(x))
	}
	f, _ := s.Float64()
	return f
}

// magnitudeDatabase generates an N-item database whose frequencies and
// sizes are drawn log-uniformly from the smallest subnormal up to 1e300,
// so its frame spans most of the float64 range.
func magnitudeDatabase(tb testing.TB, seed, n int) *Database {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	draw := func() float64 {
		if rng.Intn(8) == 0 {
			// A subnormal, down to the smallest one.
			return math.Float64frombits(1 + uint64(rng.Int63n(1<<52-1)))
		}
		return math.Pow(10, -320+620*rng.Float64())
	}
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: i + 1, Freq: draw(), Size: draw()}
	}
	return MustNewDatabase(items)
}

// checkExactAggregates fails unless every channel's aggregates are the
// big.Float sums of its members, rounded once.
func checkExactAggregates(t *testing.T, what string, a *Allocation) {
	t.Helper()
	db := a.Database()
	for c, g := range a.Aggregates() {
		var fs, zs []float64
		for _, pos := range a.ChannelPositions(c) {
			fs = append(fs, db.Item(pos).Freq)
			zs = append(zs, db.Item(pos).Size)
		}
		wf, wz := bigSum(fs), bigSum(zs)
		if math.Float64bits(g.F) != math.Float64bits(wf) || math.Float64bits(g.Z) != math.Float64bits(wz) || g.N != len(fs) {
			t.Fatalf("%s channel %d: aggregates (F %v, Z %v, N %d), exact sums (F %v, Z %v, N %d)",
				what, c, g.F, g.Z, g.N, wf, wz, len(fs))
		}
	}
}

// TestAggregatesAreExactSums checks Aggregates against big.Float sums
// on diverse, tie-heavy, extreme- and whole-range-magnitude databases
// and the paper example, on the allocation as built and after every
// move of a random walk, so the sums' subtracts are checked as well as
// their adds.
func TestAggregatesAreExactSums(t *testing.T) {
	for _, tc := range []struct {
		name string
		db   *Database
		k    int
	}{
		{"diverse", diverseDatabase(t, 3, 200, 0.8, 2), 7},
		{"ties", tieDatabase(t, 3, 90), 4},
		{"extreme", extremeDatabase(t, 3, 150), 6},
		{"magnitude", magnitudeDatabase(t, 3, 120), 5},
		{"paper", PaperExampleDatabase(), PaperExampleK},
	} {
		a := randomAllocation(t, tc.db, tc.k, 11)
		checkExactAggregates(t, tc.name+" as built", a)
		rng := rand.New(rand.NewSource(5))
		for step := 0; step < 300; step++ {
			m := randomMove(rng, a)
			a.move(m.Pos, m.To)
			checkExactAggregates(t, fmt.Sprintf("%s step %d", tc.name, step), a)
		}
		// The sums are order-free: the walked allocation reads exactly
		// what one built from its assignment reads.
		fresh, err := NewAllocation(tc.db, tc.k, a.Assignment())
		if err != nil {
			t.Fatal(err)
		}
		for c, g := range a.Aggregates() {
			if w := fresh.Aggregates()[c]; g != w {
				t.Fatalf("%s channel %d: walked %+v, rebuilt %+v", tc.name, c, g, w)
			}
		}
	}
}

// TestExactSumEdges pins the read's rounding where it is easiest to
// get wrong: halfway cases both ways, a tie broken by a bit far below
// the leading 64, subnormal results, a sum past the float64 range, and
// a frame covering the whole range.
func TestExactSumEdges(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	for _, tc := range []struct {
		name string
		xs   []float64
		want float64
	}{
		{"half rounds down to even", []float64{1, 0x1p-53}, 1},
		{"half rounds up to even", []float64{1 + 0x1p-52, 0x1p-53}, 1 + 0x1p-51},
		{"sticky bit breaks the tie", []float64{1, 0x1p-53, 0x1p-1000}, 1 + 0x1p-52},
		{"cancelling order", []float64{1e300, 1, 1e-300}, 1e300},
		{"subnormal", []float64{tiny, tiny, 3 * tiny}, 5 * tiny},
		{"subnormal to normal", []float64{0x1p-1022 - tiny, tiny}, 0x1p-1022},
		{"overflow", []float64{math.MaxFloat64, math.MaxFloat64}, math.Inf(1)},
		{"whole range", []float64{tiny, math.MaxFloat64, 1}, math.MaxFloat64},
	} {
		items := make([]Item, len(tc.xs))
		for i, x := range tc.xs {
			items[i] = Item{ID: i, Freq: x, Size: 1}
		}
		a, err := NewAllocation(MustNewDatabase(items), 1, make([]int, len(items)))
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Aggregates()[0].F; math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Errorf("%s: F = %v (%#x), want %v (%#x)", tc.name, got, math.Float64bits(got), tc.want, math.Float64bits(tc.want))
		}
		if want := bigSum(tc.xs); math.Float64bits(tc.want) != math.Float64bits(want) {
			t.Errorf("%s: table says %v, big.Float says %v", tc.name, tc.want, want)
		}
	}
	whole := MustNewDatabase([]Item{{ID: 1, Freq: tiny, Size: math.MaxFloat64}, {ID: 2, Freq: 1, Size: 1}})
	// 2⁻¹⁰⁷⁴ up to twice the largest float64: 2100 bits.
	if l := whole.frame.limbs; l != 33 {
		t.Fatalf("whole-range frame has %d limbs, want 33", l)
	}
}

// FuzzExactSums checks the aggregates against big.Float sums after an
// arbitrary sequence of moves: each byte pair of ops moves one item
// (first byte) to one channel (second byte). shape picks a diverse,
// tie-heavy, extreme- or whole-range-magnitude database.
func FuzzExactSums(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(40), uint8(5), []byte{0, 1, 7, 2, 9, 0, 3, 4})
	f.Add(uint8(1), int64(2), uint8(30), uint8(3), []byte{1, 1, 2, 2, 3, 0})
	f.Add(uint8(2), int64(3), uint8(60), uint8(7), []byte{5, 6, 5, 0, 5, 6, 11, 3})
	f.Add(uint8(3), int64(4), uint8(50), uint8(4), []byte{0, 3, 1, 2, 2, 1, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, rawN, rawK uint8, ops []byte) {
		n := int(rawN)%80 + 2
		var db *Database
		switch shape % 4 {
		case 0:
			db = diverseDatabase(t, int(seed), n, 0.8, 2)
		case 1:
			db = tieDatabase(t, int(seed), n)
		case 2:
			db = extremeDatabase(t, int(seed), n)
		default:
			db = magnitudeDatabase(t, int(seed), n)
		}
		k := int(rawK)%n + 1
		a := randomAllocation(t, db, k, int(seed))
		checkExactAggregates(t, "as built", a)
		for i := 0; i+1 < len(ops) && i < 64; i += 2 {
			a.move(int(ops[i])%n, int(ops[i+1])%k)
			checkExactAggregates(t, fmt.Sprintf("op %d", i/2), a)
		}
	})
}
