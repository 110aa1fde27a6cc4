package core

import (
	"math"
	"testing"
	"testing/quick"

	"diversecast/internal/alloctest"
)

func TestCostMatchesBruteForce(t *testing.T) {
	check := func(seed uint16, rawN uint8, rawK uint8) bool {
		n := int(rawN)%30 + 2
		k := int(rawK)%n + 1
		db := randomDatabase(t, int(seed), n)
		a := randomAllocation(t, db, k, int(seed)+1)
		return math.Abs(Cost(a)-bruteForceCost(a)) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWaitingTimeDecomposition(t *testing.T) {
	// W_b must equal cost/(2b) + downloadMass/b for any allocation.
	db := PaperExampleDatabase()
	a := randomAllocation(t, db, 5, 3)
	const b = 10.0
	want := Cost(a)/(2*b) + db.DownloadMass()/b
	if got := WaitingTime(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("WaitingTime = %v, want %v", got, want)
	}
}

func TestWaitingTimeIsChannelAverage(t *testing.T) {
	// Eq. (2) is the frequency-weighted mean of the per-channel
	// Eq. (1) averages: W_b = Σ_i F_i · W^(i).
	db := PaperExampleDatabase()
	const b = 10.0
	for seed := 0; seed < 5; seed++ {
		a := randomAllocation(t, db, 4, seed)
		agg := a.Aggregates()
		var weighted float64
		for c := 0; c < a.K(); c++ {
			weighted += agg[c].F * ChannelWaitingTime(a, c, b)
		}
		if got := WaitingTime(a, b); math.Abs(got-weighted) > 1e-9 {
			t.Fatalf("seed %d: W_b = %v, Σ F_i W^(i) = %v", seed, got, weighted)
		}
	}
}

func TestItemWaitingTimeMatchesEq1(t *testing.T) {
	// Eq. (1): item wait = Z_channel/(2b) + z_item/b. The channel
	// average must also be the frequency-weighted mean of item waits.
	db := PaperExampleDatabase()
	const b = 10.0
	a := randomAllocation(t, db, 3, 11)
	agg := a.Aggregates()
	for pos := 0; pos < db.Len(); pos++ {
		c := a.ChannelOf(pos)
		want := agg[c].Z/(2*b) + db.Item(pos).Size/b
		if got := ItemWaitingTime(a, pos, b); math.Abs(got-want) > 1e-12 {
			t.Fatalf("item %d wait = %v, want %v", pos, got, want)
		}
	}
	for c := 0; c < a.K(); c++ {
		var num, den float64
		for pos := 0; pos < db.Len(); pos++ {
			if a.ChannelOf(pos) == c {
				num += db.Item(pos).Freq * ItemWaitingTime(a, pos, b)
				den += db.Item(pos).Freq
			}
		}
		if den == 0 {
			continue
		}
		if got := ChannelWaitingTime(a, c, b); math.Abs(got-num/den) > 1e-9 {
			t.Fatalf("channel %d wait = %v, want weighted mean %v", c, got, num/den)
		}
	}
}

func TestEmptyChannelWaitingTimeIsZero(t *testing.T) {
	db := MustNewDatabase([]Item{{ID: 1, Freq: 1, Size: 5}, {ID: 2, Freq: 1, Size: 5}})
	a, err := NewAllocation(db, 2, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := ChannelWaitingTime(a, 1, 10); got != 0 {
		t.Fatalf("empty channel waiting time = %v, want 0", got)
	}
}

func TestCycleLength(t *testing.T) {
	db := MustNewDatabase([]Item{
		{ID: 1, Freq: 0.5, Size: 30},
		{ID: 2, Freq: 0.5, Size: 20},
	})
	a, err := NewAllocation(db, 2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := CycleLength(a, 0, 10); got != 3 {
		t.Fatalf("cycle 0 = %v, want 3", got)
	}
	if got := CycleLength(a, 1, 10); got != 2 {
		t.Fatalf("cycle 1 = %v, want 2", got)
	}
}

// The per-item and per-channel readers read one channel's exact sums:
// the values Aggregates gives, and no allocation per call (they run
// per cache miss and per served request).
func TestChannelReadersAllocFree(t *testing.T) {
	const b = 10.0
	db := randomDatabase(t, 4, 90)
	a := randomAllocation(t, db, 6, 2)
	agg := a.Aggregates()
	for pos := 0; pos < db.Len(); pos++ {
		c := a.ChannelOf(pos)
		if got, want := ItemWaitingTime(a, pos, b), agg[c].Z/(2*b)+db.Item(pos).Size/b; got != want {
			t.Fatalf("item %d: ItemWaitingTime %v, from Aggregates %v", pos, got, want)
		}
		if got, want := CycleLength(a, c, b), agg[c].Z/b; got != want {
			t.Fatalf("channel %d: CycleLength %v, from Aggregates %v", c, got, want)
		}
	}
	alloctest.MustZeroAllocs(t, "ItemWaitingTime", 2, func() { ItemWaitingTime(a, 5, b) })
	alloctest.MustZeroAllocs(t, "CycleLength", 2, func() { CycleLength(a, 3, b) })
	alloctest.MustZeroAllocs(t, "ChannelWaitingTime", 2, func() { ChannelWaitingTime(a, 3, b) })
	alloctest.MustZeroAllocs(t, "Cost", 2, func() { Cost(a) })
}

// Property: the closed-form Δc of Eq. (4) equals the recomputed cost
// difference for every possible move, on random instances.
func TestMoveReductionMatchesRecomputation(t *testing.T) {
	check := func(seed uint16, rawN uint8, rawK uint8) bool {
		n := int(rawN)%20 + 2
		k := int(rawK)%n + 1
		if k < 2 {
			k = 2
		}
		if k > n {
			k = n
		}
		db := randomDatabase(t, int(seed), n)
		a := randomAllocation(t, db, k, int(seed)+42)
		agg := a.Aggregates()
		before := Cost(a)
		for pos := 0; pos < n; pos++ {
			p := a.ChannelOf(pos)
			for q := 0; q < k; q++ {
				if q == p {
					continue
				}
				predicted := MoveReduction(db.Item(pos), agg[p], agg[q])
				moved := a.Clone()
				moved.move(pos, q)
				actual := before - Cost(moved)
				if math.Abs(predicted-actual) > 1e-9*(1+math.Abs(before)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging two groups never decreases cost below the split
// version's total minus cross terms — concretely, cost is always
// nonnegative and bounded by totalF × totalZ (the single-group cost is
// the worst case of any refinement chain).
func TestCostBounds(t *testing.T) {
	check := func(seed uint16, rawN uint8, rawK uint8) bool {
		n := int(rawN)%30 + 1
		k := int(rawK)%n + 1
		db := randomDatabase(t, int(seed), n)
		a := randomAllocation(t, db, k, int(seed)+5)
		c := Cost(a)
		return c >= 0 && c <= db.TotalFreq()*db.TotalSize()+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
