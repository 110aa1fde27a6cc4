package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"diversecast/internal/obs/trace"
)

func TestCDSNeverIncreasesCost(t *testing.T) {
	check := func(seed uint16, rawN uint8, rawK uint8) bool {
		n := int(rawN)%30 + 2
		k := int(rawK)%n + 1
		db := randomDatabase(t, int(seed), n)
		a := randomAllocation(t, db, k, int(seed)+1)
		refined, err := NewCDS().Refine(a)
		if err != nil || refined.Validate() != nil {
			return false
		}
		return Cost(refined) <= Cost(a)+1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCDSDoesNotMutateInput(t *testing.T) {
	db := PaperExampleDatabase()
	a := randomAllocation(t, db, 4, 9)
	before := a.Assignment()
	if _, err := NewCDS().Refine(a); err != nil {
		t.Fatal(err)
	}
	after := a.Assignment()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("CDS mutated its input allocation")
		}
	}
}

// The defining postcondition: at a CDS fixed point no single-item move
// reduces the cost (local optimality).
func TestCDSReachesLocalOptimum(t *testing.T) {
	check := func(seed uint16, rawN uint8, rawK uint8) bool {
		n := int(rawN)%25 + 2
		k := int(rawK)%n + 1
		if k < 2 {
			k = 2
		}
		if k > n {
			k = n
		}
		db := randomDatabase(t, int(seed), n)
		a := randomAllocation(t, db, k, int(seed)+17)
		refined, err := NewCDS().Refine(a)
		if err != nil {
			return false
		}
		agg := refined.Aggregates()
		eps := 1e-9 * (1 + Cost(refined))
		for pos := 0; pos < n; pos++ {
			p := refined.ChannelOf(pos)
			for q := 0; q < k; q++ {
				if q == p {
					continue
				}
				if MoveReduction(db.Item(pos), agg[p], agg[q]) > eps {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCDSIdempotentAtFixedPoint(t *testing.T) {
	db := randomDatabase(t, 4, 30)
	a := randomAllocation(t, db, 5, 8)
	cds := NewCDS()
	once, err := cds.Refine(a)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := cds.Refine(once)
	if err != nil {
		t.Fatal(err)
	}
	if !once.Equal(twice) {
		t.Fatal("refining a local optimum changed the allocation")
	}
}

func TestCDSTraceIsConsistent(t *testing.T) {
	db := randomDatabase(t, 21, 40)
	a := randomAllocation(t, db, 6, 3)
	refined, moves, err := NewCDS().RefineWithTrace(a)
	if err != nil {
		t.Fatal(err)
	}
	// Replaying the trace from the input must land on the output, and
	// each recorded Δc must match the recomputed cost delta.
	replay := a.Clone()
	for i, m := range moves {
		if replay.ChannelOf(m.Pos) != m.From {
			t.Fatalf("move %d: item at %d is on %d, trace says %d", i, m.Pos, replay.ChannelOf(m.Pos), m.From)
		}
		before := Cost(replay)
		if math.Abs(before-m.CostBefore) > 1e-9*(1+before) {
			t.Fatalf("move %d: CostBefore %v, recomputed %v", i, m.CostBefore, before)
		}
		replay.move(m.Pos, m.To)
		after := Cost(replay)
		if math.Abs((before-after)-m.Reduction) > 1e-9*(1+before) {
			t.Fatalf("move %d: Δc %v, recomputed %v", i, m.Reduction, before-after)
		}
		if math.Abs(after-m.CostAfter) > 1e-9*(1+before) {
			t.Fatalf("move %d: CostAfter %v, recomputed %v", i, m.CostAfter, after)
		}
		if m.Reduction <= 0 {
			t.Fatalf("move %d: non-positive Δc %v applied", i, m.Reduction)
		}
	}
	if !replay.Equal(refined) {
		t.Fatal("replaying the trace does not reproduce the refined allocation")
	}
}

func TestCDSMovesAreStrictlyDecreasing(t *testing.T) {
	db := randomDatabase(t, 33, 50)
	a := randomAllocation(t, db, 7, 2)
	_, moves, err := NewCDS().RefineWithTrace(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(moves); i++ {
		if moves[i].CostBefore >= moves[i-1].CostBefore {
			continue // costs must strictly decrease across moves
		}
	}
	for i, m := range moves {
		if m.CostAfter >= m.CostBefore {
			t.Fatalf("move %d did not decrease cost: %v → %v", i, m.CostBefore, m.CostAfter)
		}
	}
}

// TestCDSTraceCostMatchesRecomputationExactly is the drift
// regression: the trace used to carry an incrementally tracked cost
// (cost -= Δc per move), which floats away from the true Cost over
// long refinements. CostAfter is computed from the aggregates the
// exact group sums give, so it must equal Cost bit-for-bit — no
// tolerance — on every move of a long run, and the final CostAfter
// must equal Cost(refined) exactly. The extreme-magnitude databases
// put nine and six decades between their frequencies and sizes.
func TestCDSTraceCostMatchesRecomputationExactly(t *testing.T) {
	for _, seed := range []int{1, 7, 99} {
		for _, tc := range []struct {
			name string
			db   *Database
		}{
			{"random", randomDatabase(t, seed, 120)},
			{"extreme", extremeDatabase(t, seed, 120)},
		} {
			a := randomAllocation(t, tc.db, 8, seed+5)
			refined, moves, err := NewCDS().RefineWithTrace(a)
			if err != nil {
				t.Fatal(err)
			}
			if len(moves) == 0 {
				t.Fatalf("%s seed %d: random allocation already optimal?", tc.name, seed)
			}
			replay := a.Clone()
			for i, m := range moves {
				replay.move(m.Pos, m.To)
				if got, want := m.CostAfter, Cost(replay); got != want {
					t.Fatalf("%s seed %d, move %d/%d: CostAfter %v, Cost %v (drift %g)",
						tc.name, seed, i, len(moves), got, want, got-want)
				}
				if i+1 < len(moves) && moves[i+1].CostBefore != m.CostAfter {
					t.Fatalf("%s seed %d, move %d: CostBefore chain broken", tc.name, seed, i)
				}
			}
			if got, want := moves[len(moves)-1].CostAfter, Cost(refined); got != want {
				t.Fatalf("%s seed %d: final CostAfter %v, Cost(refined) %v", tc.name, seed, got, want)
			}
		}
	}
}

// MaxMoves must bound the untraced Refine path too, not just
// RefineWithTrace (it used to count trace entries, which the plain
// Refine never appends).
func TestCDSMaxMovesBoundsUntracedRefine(t *testing.T) {
	db := randomDatabase(t, 2, 60)
	a := randomAllocation(t, db, 6, 1)
	_, unbounded, err := NewCDS().RefineWithTrace(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(unbounded) < 3 {
		t.Skipf("instance converged in %d moves; need ≥3 for this test", len(unbounded))
	}
	limited := &CDS{MaxMoves: 2}
	bounded, err := limited.Refine(a)
	if err != nil {
		t.Fatal(err)
	}
	// Refine with MaxMoves=2 must land on the same allocation as the
	// first two traced moves — not on the unbounded fixed point.
	replay := a.Clone()
	replay.move(unbounded[0].Pos, unbounded[0].To)
	replay.move(unbounded[1].Pos, unbounded[1].To)
	if !bounded.Equal(replay) {
		t.Fatal("Refine ignored MaxMoves")
	}
}

func TestCDSMaxMoves(t *testing.T) {
	db := randomDatabase(t, 2, 60)
	a := randomAllocation(t, db, 6, 1)
	_, unbounded, err := NewCDS().RefineWithTrace(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(unbounded) < 3 {
		t.Skipf("instance converged in %d moves; need ≥3 for this test", len(unbounded))
	}
	limited := &CDS{MaxMoves: 2}
	_, moves, err := limited.RefineWithTrace(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 2 {
		t.Fatalf("MaxMoves=2 applied %d moves", len(moves))
	}
}

// stuckSelector claims a large Δc for moving item 0 to the next
// channel, whatever that move does to the cost: a selector handing
// out a stale bound as exact.
type stuckSelector struct{ cur *Allocation }

func (s *stuckSelector) next() (Move, bool) {
	from := s.cur.ChannelOf(0)
	return Move{Pos: 0, From: from, To: (from + 1) % s.cur.K(), Reduction: 1}, true
}

func (*stuckSelector) applied(Move, int) {}

func (s *stuckSelector) stats() selStats { return selStats{} }

// TestCDSFailsClosedOnNoProgress: from a local optimum every move
// raises the cost, so a selector that claims otherwise must end the
// refinement with ErrNoProgress after one applied move, on both the
// plain and the traced path, instead of applying moves forever, and
// count it once in core_cds_no_progress_total.
func TestCDSFailsClosedOnNoProgress(t *testing.T) {
	opt, err := NewDRPCDS().Allocate(PaperExampleDatabase(), PaperExampleK)
	if err != nil {
		t.Fatal(err)
	}
	for _, wantTrace := range []bool{false, true} {
		tr := trace.New(trace.Config{Capacity: 64, Clock: &trace.ManualClock{}})
		c := &CDS{Tracer: tr}
		before := cdsNoProgress.Value()
		out, moves, err := c.refine(opt, wantTrace, func(cur *Allocation, _ []GroupAgg) moveSelector {
			return &stuckSelector{cur: cur}
		})
		if !errors.Is(err, ErrNoProgress) {
			t.Fatalf("wantTrace=%v: err = %v, want ErrNoProgress", wantTrace, err)
		}
		if d := cdsNoProgress.Value() - before; d != 1 {
			t.Errorf("wantTrace=%v: core_cds_no_progress_total rose by %d, want 1", wantTrace, d)
		}
		if out != nil || moves != nil {
			t.Errorf("wantTrace=%v: got allocation %v and %d moves with the error", wantTrace, out, len(moves))
		}
		if n := len(tr.Snapshot().Named(spanCDSMove)); n != 1 {
			t.Errorf("wantTrace=%v: %d moves applied, want 1", wantTrace, n)
		}
		refine := tr.Snapshot().Named(spanCDSRefine)
		if len(refine) != 1 {
			t.Fatalf("wantTrace=%v: %d cds_refine spans", wantTrace, len(refine))
		}
		if outcome, _ := refine[0].Attr("outcome"); outcome.Str != "no_progress" {
			t.Errorf("wantTrace=%v: cds_refine outcome %q, want no_progress", wantTrace, outcome.Str)
		}
	}
}

func TestCDSOnSingleChannelIsNoOp(t *testing.T) {
	db := PaperExampleDatabase()
	a, err := NewAllocation(db, 1, make([]int, db.Len()))
	if err != nil {
		t.Fatal(err)
	}
	refined, moves, err := NewCDS().RefineWithTrace(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 || !refined.Equal(a) {
		t.Fatal("CDS on K=1 should be a no-op")
	}
}

func TestCDSCanEmptyAGroup(t *testing.T) {
	// Two heavy items on channel 0 and a lone feather on channel 1;
	// constructed so the optimum leaves a channel empty — CDS must be
	// willing to drain groups (the paper's example empties group 3).
	db := MustNewDatabase([]Item{
		{ID: 1, Freq: 0.98, Size: 1},
		{ID: 2, Freq: 0.01, Size: 100},
		{ID: 3, Freq: 0.01, Size: 100},
	})
	a, err := NewAllocation(db, 2, []int{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := NewCDS().Refine(a)
	if err != nil {
		t.Fatal(err)
	}
	if Cost(refined) > Cost(a) {
		t.Fatal("refinement increased cost")
	}
	// The known optimum for this instance: item 1 alone, items 2+3
	// together — verify CDS found it from this start.
	agg := refined.Aggregates()
	if agg[refined.ChannelOf(0)].N != 1 {
		t.Errorf("hot item should end up alone, got aggregates %+v", agg)
	}
}

// TestOrderKeyOrdersLikeFloats pins the column scans' integer keys:
// strictly increasing over strictly increasing floats, and inverted
// by keyFloat bit for bit.
func TestOrderKeyOrdersLikeFloats(t *testing.T) {
	xs := []float64{
		math.Inf(-1), -math.MaxFloat64, -3.5, -1, -math.SmallestNonzeroFloat64,
		0, math.SmallestNonzeroFloat64, 1e-300, 0.25, 1, 3.5, math.MaxFloat64, math.Inf(1),
	}
	for i, x := range xs {
		if got := keyFloat(orderKey(x)); math.Float64bits(got) != math.Float64bits(x) {
			t.Fatalf("keyFloat(orderKey(%v)) = %v", x, got)
		}
		if i > 0 && orderKey(xs[i-1]) >= orderKey(x) {
			t.Fatalf("orderKey(%v) = %d not below orderKey(%v) = %d", xs[i-1], orderKey(xs[i-1]), x, orderKey(x))
		}
	}
}
