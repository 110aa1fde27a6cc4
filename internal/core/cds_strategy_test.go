package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"diversecast/internal/alloctest"
	"diversecast/internal/pool"
)

// This file pins the CDS move-selection engines to each other: the
// default lazy-bound pair table must produce a move-for-move
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

// extremeDatabase generates an N-item database whose frequencies span
// nine decades and sizes six, log-uniformly: Eq. 4's terms then differ
// by up to fifteen orders of magnitude, which stresses the rounding
// slack of the incremental table's stale bounds.
func extremeDatabase(tb testing.TB, seed, n int) *Database {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: i + 1, Freq: math.Pow(10, -9*rng.Float64()), Size: math.Pow(10, 6*rng.Float64())}
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
	assertMatchesNaive(t, a, maxMoves, refN, movesN)
}

// assertMatchesNaive refines a with the incremental default and fails
// the test on the first bit-level difference from the naive oracle's
// refinement refN and its trace movesN, or unless the refined
// allocation passes Validate.
func assertMatchesNaive(t *testing.T, a *Allocation, maxMoves int, refN *Allocation, movesN []Move) {
	t.Helper()
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
		if math.Float64bits(n.Reduction) != math.Float64bits(e.Reduction) {
			t.Fatalf("move %d Reduction bits differ: naive %b, %v %b", i, n.Reduction, eng.Strategy, e.Reduction)
		}
		if math.Float64bits(n.CostBefore) != math.Float64bits(e.CostBefore) ||
			math.Float64bits(n.CostAfter) != math.Float64bits(e.CostAfter) {
			t.Fatalf("move %d cost bits differ: naive %+v, %v %+v", i, n, eng.Strategy, e)
		}
	}
	if !refN.Equal(refE) {
		t.Fatalf("%v: refined allocations differ despite identical traces", eng.Strategy)
	}
	// The moves leave the position lists in any order; Refine must
	// hand them back ascending, as Validate requires.
	if err := refE.Validate(); err != nil {
		t.Fatalf("%v: refined allocation: %v", eng.Strategy, err)
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
// frequencies and two sizes, random starts, K = 2–7, with refresh's
// scalar loop and with its AVX2 kernel.
func TestCDSStrategiesIdenticalOnTies(t *testing.T) {
	withKernel(t, func(t *testing.T) {
		for seed := 0; seed < 320; seed++ {
			n := 6 + seed%60
			k := 2 + seed%6
			db := tieDatabase(t, seed, n)
			assertIdenticalTraces(t, randomAllocation(t, db, k, seed+1000), 0)
		}
	})
}

// TestCDSFullRefinementsMatchNaive holds the default engine to the
// naive oracle's full refinements (no move bound), bit for bit, at a
// size where refinements run thousands of moves and the pass scan and
// member scan both engage: N=2000 with K=8 and K=64, from DRP and
// random starts, on a Table 5 shaped database (θ=0.8, Φ=2), a
// tie-heavy and an extreme-magnitude one, plus the paper's worked
// example. The naive trace is computed once per case and the default
// engine runs under both kernels. The oracle's O(N·K) scans make this
// too slow for the race detector, which the smaller differential tests
// above already cover.
func TestCDSFullRefinementsMatchNaive(t *testing.T) {
	if alloctest.RaceEnabled() {
		t.Skip("full N=2000 naive refinements are too slow under the race detector")
	}
	type gateCase struct {
		name  string
		start *Allocation
	}
	var cases []gateCase
	const n = 2000
	for _, d := range []struct {
		name string
		db   *Database
	}{
		{"table5", diverseDatabase(t, 1, n, 0.8, 2)},
		{"ties", tieDatabase(t, 1, n)},
		{"extreme", extremeDatabase(t, 1, n)},
	} {
		for _, k := range []int{8, 64} {
			drp, err := NewDRP().Allocate(d.db, k)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases,
				gateCase{fmt.Sprintf("%s/K=%d/drp", d.name, k), drp},
				gateCase{fmt.Sprintf("%s/K=%d/random", d.name, k), randomAllocation(t, d.db, k, 7)})
		}
	}
	paper, err := NewDRPExampleConsistent().Allocate(PaperExampleDatabase(), PaperExampleK)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, gateCase{"paper", paper})

	// The naive refinements run first, spread over the cores: no
	// kernel setting changes while they run.
	refs := make([]*Allocation, len(cases))
	traces := make([][]Move, len(cases))
	errs := make([]error, len(cases))
	pool.Run(runtime.GOMAXPROCS(0), len(cases), func(i int) {
		refs[i], traces[i], errs[i] = (&CDS{Strategy: StrategyNaive}).RefineWithTrace(cases[i].start)
	})
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if errs[i] != nil {
				t.Fatalf("naive: %v", errs[i])
			}
			withKernel(t, func(t *testing.T) {
				assertMatchesNaive(t, c.start, 0, refs[i], traces[i])
			})
		})
	}
}

// checkSelectorTable cross-checks the lazy-bound table against a fresh
// full scan: every fresh cell (p, q) must hold the bit-exact maximum Δc
// of D_p toward D_q and the smallest position attaining it (the moves
// leave D_p's list in any order, so the scan compares positions), every stale
// cell a bound no smaller than that maximum, and every diagonal cell
// (−Inf, −1). It returns how many fresh and stale cells it checked.
func checkSelectorTable(t *testing.T, what string, sel *incrementalSelector, cur *Allocation, agg []GroupAgg) (fresh, stale int) {
	t.Helper()
	k := cur.K()
	for p := 0; p < k; p++ {
		for q := 0; q < k; q++ {
			wantDC, wantPos := math.Inf(-1), -1
			if p != q {
				for _, pos := range cur.ChannelPositions(p) {
					if dc := MoveReduction(cur.Database().Item(pos), agg[p], agg[q]); dc > wantDC || dc == wantDC && pos < wantPos {
						wantDC, wantPos = dc, pos
					}
				}
			}
			c := p*k + q
			switch {
			case p == q:
				if !math.IsInf(sel.dc[c], -1) || sel.pos[c] != -1 {
					t.Fatalf("%s diagonal (%d,%d): (%v, %d), want (-Inf, -1)", what, p, q, sel.dc[c], sel.pos[c])
				}
			case sel.pos[c] >= 0:
				fresh++
				if sel.dc[c] != wantDC || int(sel.pos[c]) != wantPos {
					t.Fatalf("%s fresh cell (%d,%d): table (%v, %d), scan (%v, %d)",
						what, p, q, sel.dc[c], sel.pos[c], wantDC, wantPos)
				}
			default:
				stale++
				if !(sel.dc[c] >= wantDC) {
					t.Fatalf("%s stale cell (%d,%d): bound %v below the scan's maximum %v (pos %d)",
						what, p, q, sel.dc[c], wantDC, wantPos)
				}
			}
		}
	}
	return fresh, stale
}

// applyMove performs one refine iteration by hand: move (which updates
// the two touched groups' exact sums), read their aggregates, notify
// the selector.
func applyMove(cur *Allocation, agg []GroupAgg, sel moveSelector, m Move) {
	slot := cur.move(m.Pos, m.To)
	agg[m.From], agg[m.To] = cur.groupAgg(m.From), cur.groupAgg(m.To)
	sel.applied(m, slot)
}

// randomMove draws a move of a random item to a random other group.
func randomMove(rng *rand.Rand, cur *Allocation) Move {
	pos := rng.Intn(cur.Database().Len())
	from := cur.ChannelOf(pos)
	return Move{Pos: pos, From: from, To: (from + 1 + rng.Intn(cur.K()-1)) % cur.K()}
}

// TestCDSIncrementalSelectorInvariant checks the lazy-bound table
// against a fresh full scan (checkSelectorTable) after every applied
// move. Each case runs one full refinement, then a walk of random
// moves that the refinement would never make, so bounds also rise past
// cost-raising moves.
func TestCDSIncrementalSelectorInvariant(t *testing.T) {
	for _, tc := range []struct {
		name string
		db   *Database
		k    int
	}{
		{"diverse", diverseDatabase(t, 9, 70, 0.8, 2), 6},
		{"ties", tieDatabase(t, 9, 40), 5},
		{"extreme", extremeDatabase(t, 9, 90), 7},
	} {
		cur := randomAllocation(t, tc.db, tc.k, 4)
		agg := cur.Aggregates()
		sel := newIncrementalSelector(cur, agg)
		var fresh, stale int
		check := func(step int) {
			f, s := checkSelectorTable(t, fmt.Sprintf("%s step %d", tc.name, step), sel, cur, agg)
			fresh, stale = fresh+f, stale+s
		}
		check(-1)
		step := 0
		for ; ; step++ {
			m, found := sel.next()
			if !found {
				break
			}
			applyMove(cur, agg, sel, m)
			check(step)
		}
		rng := rand.New(rand.NewSource(int64(tc.k)))
		for end := step + 200; step < end; step++ {
			applyMove(cur, agg, sel, randomMove(rng, cur))
			check(step)
		}
		if fresh == 0 || stale == 0 {
			t.Fatalf("%s: checked %d fresh and %d stale cells; both paths must be exercised", tc.name, fresh, stale)
		}
	}
}

// TestCDSIncrementalBoundsAbsorbRounding drives 3000 tiny tables (3–7
// items, K = 2–3) through random walks and checks every cell after
// every move. Frequencies span nine decades and sizes six, and a third
// of the items take frequencies within a few ulps of 1, so Eq. 4 often
// cancels to within rounding of 0: a stale bound raised by the exact
// aggregate rises alone, or with a slack of one unit of roundoff,
// falls below a member's computed Δc here.
func TestCDSIncrementalBoundsAbsorbRounding(t *testing.T) {
	for seed := 0; seed < 3000; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		n, k := 3+rng.Intn(5), 2+rng.Intn(2)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{ID: i + 1, Freq: math.Pow(10, -9*rng.Float64()), Size: math.Pow(10, 6*rng.Float64())}
			if rng.Intn(3) == 0 {
				items[i].Freq = 1 + float64(rng.Intn(8))*0x1p-52
			}
		}
		cur := randomAllocation(t, MustNewDatabase(items), k, seed)
		agg := cur.Aggregates()
		sel := newIncrementalSelector(cur, agg)
		for step := 0; step < 30; step++ {
			applyMove(cur, agg, sel, randomMove(rng, cur))
			checkSelectorTable(t, fmt.Sprintf("seed %d step %d", seed, step), sel, cur, agg)
		}
	}
}

// FuzzCDSBounds checks the anchored bounds after every move of a
// fuzzed move script on a fuzzed small database. items decodes 3–12
// items, two bytes each, read cyclically: a first byte below 64 gives
// a frequency within 7 ulps of 1, any other one a frequency over nine
// decades, and the second byte a size over six decades, so Eq. 4 often
// cancels to within rounding of 0. Each script byte is one step: a
// random move (randomMove on a rand seeded by seed, so often
// cost-raising), a move of item b mod N to another group and straight
// back, which leaves every aggregate where it was so the anchors age
// while their net changes return to zero or go negative, or the
// engine's own best move when it has one. checkSelectorTable runs after
// every move. The last seed fails as soon as the rounding slack is
// removed.
func FuzzCDSBounds(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{3, 200, 90, 10, 250, 128, 0, 40}, []byte{0, 64, 128, 192, 1, 65, 129, 193})
	f.Add(int64(2), uint8(1), []byte{1, 0, 2, 255, 5, 17, 64, 64, 255, 1}, []byte{130, 131, 132, 133, 0, 1, 2, 194, 195, 196})
	f.Add(int64(3), uint8(2), []byte{70, 80, 90, 100, 110, 120, 130, 140, 150, 160, 170, 180, 190, 200, 210, 220, 230, 240, 250, 0, 10, 20, 30, 33},
		[]byte{200, 201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 211, 70, 71, 72, 73, 74, 75, 5, 6, 7})
	f.Add(int64(43), uint8('9'), []byte("0X00"), []byte("00\xca0"))
	f.Fuzz(func(t *testing.T, seed int64, rawK uint8, items, script []byte) {
		if len(items) == 0 {
			return
		}
		n := 3 + len(items)/2%10
		db := make([]Item, n)
		for i := range db {
			fb, zb := items[2*i%len(items)], items[(2*i+1)%len(items)]
			db[i] = Item{ID: i + 1, Freq: 1 + float64(fb%8)*0x1p-52, Size: math.Pow(10, 6*float64(zb)/255)}
			if fb >= 64 {
				db[i].Freq = math.Pow(10, -9*float64(fb-64)/191)
			}
		}
		k := 2 + int(rawK)%(min(n, 6)-1)
		rng := rand.New(rand.NewSource(seed))
		cur := randomAllocation(t, MustNewDatabase(db), k, int(seed))
		agg := cur.Aggregates()
		sel := newIncrementalSelector(cur, agg)
		checkSelectorTable(t, "start", sel, cur, agg)
		step := func(i int, m Move) {
			applyMove(cur, agg, sel, m)
			checkSelectorTable(t, fmt.Sprintf("step %d %+v", i, m), sel, cur, agg)
		}
		for i, b := range script[:min(len(script), 200)] {
			switch b >> 6 {
			case 0, 1:
				step(i, randomMove(rng, cur))
			case 2:
				pos := int(b) % n
				from := cur.ChannelOf(pos)
				to := (from + 1 + int(b>>3)%(k-1)) % k
				step(i, Move{Pos: pos, From: from, To: to})
				step(i, Move{Pos: pos, From: to, To: from})
			default:
				if m, found := sel.next(); found {
					step(i, m)
				}
			}
		}
	})
}

// TestCDSPickOnAnyStaleMix checks pick against the all-fresh table on
// arbitrary mixes of fresh and stale cells: every off-diagonal cell is
// turned stale at random with its exact value, or a slightly or
// greatly raised value, as its bound, and pick must still hand out
// the same move. Tie-heavy tables make a stale cell whose bound equals
// the best fresh Δc common, so a pick that refreshes only bounds
// strictly above the best fails here. K runs from 2 to 20, so tables
// span up to 25 of the pass scan's 16-cell blocks and end in every
// tail a square table can have (K² mod 16 is 0, 1, 4 or 9), with both
// kernels forced and with both off.
func TestCDSPickOnAnyStaleMix(t *testing.T) {
	withKernel(t, func(t *testing.T) {
		for seed := 0; seed < 3000; seed++ {
			var db *Database
			if seed%2 == 0 {
				db = tieDatabase(t, seed, 20+seed%40)
			} else {
				db = diverseDatabase(t, seed, 20+seed%40, 0.8, 2)
			}
			k := 2 + seed%19
			cur := randomAllocation(t, db, k, seed)
			sel := newIncrementalSelector(cur, cur.Aggregates())
			want, wantFound := sel.next()
			dc := append([]float64(nil), sel.dc...)
			pos := append([]int32(nil), sel.pos...)
			rng := rand.New(rand.NewSource(int64(seed)))
			for trial := 0; trial < 20; trial++ {
				copy(sel.dc, dc)
				copy(sel.pos, pos)
				for c := range sel.dc {
					if sel.pos[c] < 0 || rng.Intn(2) == 0 {
						continue
					}
					sel.pos[c] = -1
					switch rng.Intn(3) {
					case 1:
						sel.dc[c] = math.Nextafter(sel.dc[c], math.Inf(1))
					case 2:
						sel.dc[c] += 1 + math.Abs(sel.dc[c])
					}
				}
				sel.pick()
				got, found := sel.next()
				if found != wantFound || got != want {
					t.Fatalf("seed %d trial %d: pick on a stale mix = %+v (%v), all fresh = %+v (%v)", seed, trial, got, found, want, wantFound)
				}
			}
		}
	})
}

// TestCDSStrategyString pins the engine names that CDS trace spans
// carry in their strategy attribute.
func TestCDSStrategyString(t *testing.T) {
	for s, want := range map[CDSStrategy]string{
		StrategyIncremental: "incremental",
		StrategyNaive:       "naive",
		CDSStrategy(42):     "CDSStrategy(42)",
	} {
		if got := s.String(); got != want {
			t.Fatalf("%d.String() = %q, want %q", int(s), got, want)
		}
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
// (tieDatabase), 3 an extreme-magnitude one (extremeDatabase); the fuzzer then explores sizes, channel counts and
// arbitrary starting assignments. Every input runs with refresh's
// scalar loop and, on AVX2 hosts, with its kernel forced. Any
// divergence between the engines — even a single bit of one Δc — is a
// crash.
func FuzzCDSStrategies(f *testing.F) {
	const (
		shapeDiverse = iota
		shapePaper
		shapeTies
		shapeExtreme
		shapes
	)
	paperStart := []byte{0, 0, 1, 1, 2, 2, 3, 3, 4, 4}
	f.Add(uint8(shapePaper), int64(0), uint8(10), uint8(PaperExampleK), paperStart)
	f.Add(uint8(shapePaper), int64(0), uint8(10), uint8(2), []byte{0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	f.Add(uint8(shapePaper), int64(0), uint8(10), uint8(10), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add(uint8(shapeDiverse), int64(7), uint8(48), uint8(6), []byte{0, 3, 1, 4, 2, 5})
	f.Add(uint8(shapeDiverse), int64(42), uint8(130), uint8(16), []byte{})
	f.Add(uint8(shapeTies), int64(3), uint8(38), uint8(3), []byte{0, 1, 2, 3, 4, 4, 3, 2, 1, 0, 2})
	f.Add(uint8(shapeExtreme), int64(5), uint8(60), uint8(7), []byte{6, 0, 5, 1, 4, 2, 3})

	f.Fuzz(func(t *testing.T, shape uint8, seed int64, rawN, rawK uint8, assign []byte) {
		var db *Database
		n := int(rawN)%64 + 2
		switch shape % shapes {
		case shapePaper:
			db = PaperExampleDatabase()
		case shapeTies:
			db = tieDatabase(t, int(seed), n)
		case shapeExtreme:
			db = extremeDatabase(t, int(seed), n)
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
		withKernel(t, func(t *testing.T) { assertIdenticalTraces(t, a, 0) })
	})
}
