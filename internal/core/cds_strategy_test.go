package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// This file pins the CDS move-selection engines to each other: the
// incremental pair-champion table must produce a move-for-move
// identical refinement — same positions, same channels, and the same
// floating-point BITS for every Δc and cost — as the naive full
// rescan, across workload shapes (N, K, skewness θ, diversity Φ) far
// wider than the paper's defaults, and on tie-heavy databases where
// many moves share one Δc. Exact float comparisons are deliberate: the
// table's whole contract is bit-level equality, so any tolerance would
// mask a divergence.

// diverseDatabase generates an N-item database with Zipf-like
// frequencies of skewness theta and log-uniform sizes spanning phi
// decades — the same shape internal/workload produces, rebuilt here
// because core cannot import workload (it would cycle).
func diverseDatabase(tb testing.TB, seed int, n int, theta, phi float64) *Database {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	items := make([]Item, n)
	var totalFreq float64
	for i := range items {
		f := math.Pow(1/float64(i+1), theta)
		z := math.Pow(10, rng.Float64()*phi)
		items[i] = Item{ID: i + 1, Freq: f, Size: z}
		totalFreq += f
	}
	for i := range items {
		items[i].Freq /= totalFreq
	}
	return MustNewDatabase(items)
}

// tieDatabase generates an N-item database where every item takes one
// of two frequencies and one of two sizes, all small integers, so
// aggregates and Eq. 4 values are exact and equal Δc are common: across
// items of one group, across destinations with equal aggregates, and
// across source groups. Ties are where the table's reduction order
// must reproduce the naive scan's first-strictly-greater choice.
func tieDatabase(tb testing.TB, seed, n int) *Database {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: i + 1, Freq: float64(1 + rng.Intn(2)), Size: float64(1 + 2*rng.Intn(2))}
	}
	return MustNewDatabase(items)
}

// assertIdenticalTraces refines a with the incremental default and
// with the naive oracle and fails the test on the first bit-level
// difference.
func assertIdenticalTraces(t *testing.T, a *Allocation, maxMoves int) {
	t.Helper()
	naive := &CDS{Strategy: StrategyNaive, MaxMoves: maxMoves}
	refN, movesN, err := naive.RefineWithTrace(a)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	eng := &CDS{MaxMoves: maxMoves}
	refE, movesE, err := eng.RefineWithTrace(a)
	if err != nil {
		t.Fatalf("%v: %v", eng.Strategy, err)
	}
	if len(movesN) != len(movesE) {
		t.Fatalf("move counts differ: naive %d, %v %d", len(movesN), eng.Strategy, len(movesE))
	}
	for i := range movesN {
		n, e := movesN[i], movesE[i]
		if n.Pos != e.Pos || n.From != e.From || n.To != e.To {
			t.Fatalf("move %d differs: naive %+v, %v %+v", i, n, eng.Strategy, e)
		}
		// Bit-exact: Δc and both costs must be the very same float64s.
		if n.Reduction != e.Reduction {
			t.Fatalf("move %d Reduction bits differ: naive %b, %v %b", i, n.Reduction, eng.Strategy, e.Reduction)
		}
		if n.CostBefore != e.CostBefore || n.CostAfter != e.CostAfter {
			t.Fatalf("move %d cost bits differ: naive %+v, %v %+v", i, n, eng.Strategy, e)
		}
	}
	if !refN.Equal(refE) {
		t.Fatalf("%v: refined allocations differ despite identical traces", eng.Strategy)
	}
}

// TestCDSStrategiesIdenticalTraces is the differential gate for the
// incremental default: 24 randomized workloads spanning N ∈ [12, 300],
// K ∈ [2, 24], θ ∈ [0.4, 1.6], Φ ∈ [0.5, 3], from both random and
// DRP starting points.
func TestCDSStrategiesIdenticalTraces(t *testing.T) {
	cases := []struct {
		n     int
		k     int
		theta float64
		phi   float64
	}{
		{12, 2, 0.8, 2.0},
		{20, 3, 0.4, 0.5},
		{20, 7, 1.6, 3.0},
		{40, 2, 1.0, 1.0},
		{40, 5, 0.8, 2.0},
		{40, 13, 0.6, 2.5},
		{60, 4, 1.2, 0.5},
		{60, 10, 0.8, 2.0},
		{80, 6, 0.4, 3.0},
		{80, 16, 1.4, 1.5},
		{120, 6, 0.8, 2.0}, // the paper's base point
		{120, 24, 1.0, 2.0},
		{200, 8, 0.6, 1.0},
		{300, 12, 1.2, 2.0},
	}
	for _, tc := range cases {
		for _, seed := range []int{1, 2} {
			db := diverseDatabase(t, seed*31+tc.n, tc.n, tc.theta, tc.phi)
			start := randomAllocation(t, db, tc.k, seed*17+tc.k)
			assertIdenticalTraces(t, start, 0)

			drp, err := NewDRP().Allocate(db, tc.k)
			if err != nil {
				t.Fatalf("DRP N=%d K=%d: %v", tc.n, tc.k, err)
			}
			assertIdenticalTraces(t, drp, 0)
		}
	}
}

// TestCDSStrategiesIdenticalUnderMaxMoves checks the bound interacts
// identically with both strategies (the truncated prefix is the same).
func TestCDSStrategiesIdenticalUnderMaxMoves(t *testing.T) {
	db := diverseDatabase(t, 5, 90, 0.8, 2)
	a := randomAllocation(t, db, 8, 3)
	for _, maxMoves := range []int{1, 2, 5, 17} {
		assertIdenticalTraces(t, a, maxMoves)
	}
}

// TestCDSStrategiesIdenticalOnPaperExample ties the differential gate
// to the worked example reproduced by the golden tests.
func TestCDSStrategiesIdenticalOnPaperExample(t *testing.T) {
	db := PaperExampleDatabase()
	drp, err := NewDRPExampleConsistent().Allocate(db, PaperExampleK)
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalTraces(t, drp, 0)
	for seed := 0; seed < 6; seed++ {
		assertIdenticalTraces(t, randomAllocation(t, db, PaperExampleK, seed), 0)
	}
}

// TestCDSStrategiesIdenticalOnTies is the differential gate on
// tie-heavy instances: 320 seeds of 6–65 items drawn from two
// frequencies and two sizes, random starts, K = 2–7.
func TestCDSStrategiesIdenticalOnTies(t *testing.T) {
	for seed := 0; seed < 320; seed++ {
		n := 6 + seed%60
		k := 2 + seed%6
		db := tieDatabase(t, seed, n)
		assertIdenticalTraces(t, randomAllocation(t, db, k, seed+1000), 0)
	}
}

// TestCDSIncrementalSelectorInvariant cross-checks the pair table
// against a fresh full scan after every applied move on one long
// refinement: every cell (p, q) must hold the bit-exact maximum Δc of
// D_p toward D_q and the smallest position attaining it, with
// (−Inf, −1) on the diagonal and for empty groups.
func TestCDSIncrementalSelectorInvariant(t *testing.T) {
	for _, tc := range []struct {
		name string
		db   *Database
		k    int
	}{
		{"diverse", diverseDatabase(t, 9, 70, 0.8, 2), 6},
		{"ties", tieDatabase(t, 9, 40), 5},
	} {
		cur := randomAllocation(t, tc.db, tc.k, 4)
		agg := cur.Aggregates()
		sel := newIncrementalSelector(cur, agg)
		check := func(step int) {
			k := cur.K()
			for p := 0; p < k; p++ {
				for q := 0; q < k; q++ {
					wantDC, wantPos := math.Inf(-1), -1
					if p != q {
						for _, pos := range cur.ChannelPositions(p) {
							if dc := MoveReduction(tc.db.Item(pos), agg[p], agg[q]); dc > wantDC {
								wantDC, wantPos = dc, pos
							}
						}
					}
					c := p*k + q
					if sel.dc[c] != wantDC || int(sel.pos[c]) != wantPos {
						t.Fatalf("%s step %d cell (%d,%d): table (%v, %d), fresh (%v, %d)",
							tc.name, step, p, q, sel.dc[c], sel.pos[c], wantDC, wantPos)
					}
				}
			}
		}
		check(-1)
		for step := 0; ; step++ {
			m, found := sel.next()
			if !found {
				break
			}
			cur.move(m.Pos, m.To)
			reconcileGroup(cur, agg, m.From)
			reconcileGroup(cur, agg, m.To)
			sel.applied(m)
			check(step)
		}
	}
}

// TestCDSStrategyRoundTrip pins String/ParseCDSStrategy as exact
// inverses over both engines and the error path for unknown names and
// values.
func TestCDSStrategyRoundTrip(t *testing.T) {
	for _, s := range []CDSStrategy{StrategyIncremental, StrategyNaive} {
		got, err := ParseCDSStrategy(s.String())
		if err != nil {
			t.Fatalf("ParseCDSStrategy(%q): %v", s.String(), err)
		}
		if got != s {
			t.Fatalf("round trip %v → %q → %v", s, s.String(), got)
		}
	}
	for _, name := range []string{"exhaustive", "parallel"} {
		if _, err := ParseCDSStrategy(name); err == nil {
			t.Fatalf("ParseCDSStrategy accepted unknown name %q", name)
		}
	}
	if got := CDSStrategy(42).String(); got != "CDSStrategy(42)" {
		t.Fatalf("unknown strategy String() = %q", got)
	}
}

// TestCDSConfigErrors covers refine's validation of the engine table:
// an unknown strategy is rejected, both known ones refine.
func TestCDSConfigErrors(t *testing.T) {
	db := PaperExampleDatabase()
	a := randomAllocation(t, db, PaperExampleK, 1)
	if _, err := (&CDS{Strategy: CDSStrategy(42)}).Refine(a); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Fatalf("unknown strategy: error %v, want containing %q", err, "unknown strategy")
	}
	for _, cds := range []*CDS{{}, {Strategy: StrategyNaive}} {
		if _, err := cds.Refine(a); err != nil {
			t.Fatalf("valid config %+v rejected: %v", cds, err)
		}
	}
}

// FuzzCDSStrategies fuzzes the differential property between the
// incremental table and the naive oracle. shape picks the database:
// 0 a synthetic diverse one, 1 the paper example, 2 a tie-heavy one
// (tieDatabase); the fuzzer then explores sizes, channel counts and
// arbitrary starting assignments. Any divergence between the engines
// — even a single bit of one Δc — is a crash.
func FuzzCDSStrategies(f *testing.F) {
	const (
		shapeDiverse = iota
		shapePaper
		shapeTies
		shapes
	)
	paperStart := []byte{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}
	f.Add(uint8(shapePaper), int64(0), uint8(10), uint8(PaperExampleK), paperStart)
	f.Add(uint8(shapePaper), int64(0), uint8(10), uint8(2), []byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Add(uint8(shapePaper), int64(0), uint8(10), uint8(10), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(uint8(shapeDiverse), int64(7), uint8(48), uint8(6), []byte{0, 3, 1, 4, 2, 5})
	f.Add(uint8(shapeDiverse), int64(42), uint8(130), uint8(16), []byte{})
	f.Add(uint8(shapeTies), int64(3), uint8(38), uint8(3), []byte{0, 1, 2, 3, 4, 4, 3, 2, 1, 0, 2})

	f.Fuzz(func(t *testing.T, shape uint8, seed int64, rawN, rawK uint8, assign []byte) {
		var db *Database
		n := int(rawN)%64 + 2
		switch shape % shapes {
		case shapePaper:
			db = PaperExampleDatabase()
		case shapeTies:
			db = tieDatabase(t, int(seed), n)
		default:
			db = diverseDatabase(t, int(seed), n, 0.4+float64(uint64(seed)%13)/10, 0.5+float64(uint64(seed)%5)/2)
		}
		n = db.Len()
		k := int(rawK)%n + 1
		channel := make([]int, n)
		for i := range channel {
			if len(assign) > 0 {
				channel[i] = int(assign[i%len(assign)]) % k
			}
		}
		a, err := NewAllocation(db, k, channel)
		if err != nil {
			t.Fatalf("constructed allocation invalid: %v", err)
		}
		assertIdenticalTraces(t, a, 0)
	})
}
