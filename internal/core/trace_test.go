package core

import (
	"math"
	"testing"

	"diversecast/internal/obs/trace"
)

// tracedPaperRun runs DRP (max-reduction) and CDS over the paper's
// worked example with an injected deterministic tracer and returns the
// snapshot alongside the algorithm-level traces.
func tracedPaperRun(t *testing.T) (trace.Snapshot, *Trace, []Move) {
	t.Helper()
	clk := &trace.ManualClock{}
	tr := trace.New(trace.Config{Capacity: 256, Clock: clk, RunID: "paper-example"})

	db := PaperExampleDatabase()
	d := &DRP{Policy: PolicyMaxReduction, Tracer: tr}
	a, hist, err := d.AllocateWithTrace(db, PaperExampleK)
	if err != nil {
		t.Fatal(err)
	}
	c := &CDS{Tracer: tr}
	_, moves, err := c.RefineWithTrace(a)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Snapshot(), hist, moves
}

// TestDRPTraceSpansPinTable3Sequence is the golden test for the
// tentpole: the span stream emitted under the max-reduction policy
// must replay the paper's Table 3 split sequence — same order, same
// ranges, same costs — and stay consistent with AllocateWithTrace.
func TestDRPTraceSpansPinTable3Sequence(t *testing.T) {
	snap, hist, _ := tracedPaperRun(t)

	splits := snap.Named("drp_split")
	if len(splits) != PaperExampleK-1 {
		t.Fatalf("captured %d drp_split spans, want %d", len(splits), PaperExampleK-1)
	}

	// Spans mirror the algorithm trace step for step.
	for i, rec := range splits {
		step := hist.Steps[i]
		lo, _ := rec.Attr("lo")
		hi, _ := rec.Attr("hi")
		cut, _ := rec.Attr("cut")
		if int(lo.Int) != step.Popped.Lo || int(hi.Int) != step.Popped.Hi || int(cut.Int) != step.Left.Hi {
			t.Errorf("split %d span range [%d,%d) cut %d, trace says [%d,%d) cut %d",
				i, lo.Int, hi.Int, cut.Int, step.Popped.Lo, step.Popped.Hi, step.Left.Hi)
		}
		cost, _ := rec.Attr("cost")
		if cost.Float != step.Popped.Cost {
			t.Errorf("split %d span cost %v, trace cost %v", i, cost.Float, step.Popped.Cost)
		}
		left, _ := rec.Attr("left_cost")
		right, _ := rec.Attr("right_cost")
		delta, _ := rec.Attr("delta")
		if left.Float != step.Left.Cost || right.Float != step.Right.Cost {
			t.Errorf("split %d halves (%v, %v), trace (%v, %v)",
				i, left.Float, right.Float, step.Left.Cost, step.Right.Cost)
		}
		if want := step.Popped.Cost - (step.Left.Cost + step.Right.Cost); delta.Float != want {
			t.Errorf("split %d delta %v, want %v", i, delta.Float, want)
		}
	}

	// Table 3 literals, independent of the algorithm trace: the first
	// split cuts cost 135.60 into 29.04 + 28.62, the second pops the
	// 29.04 group into 7.02 + 6.82.
	wantRows := []struct{ cost, left, right float64 }{
		{135.60, 29.04, 28.62},
		{29.04, 7.02, 6.82},
	}
	for i, want := range wantRows {
		cost, _ := splits[i].Attr("cost")
		left, _ := splits[i].Attr("left_cost")
		right, _ := splits[i].Attr("right_cost")
		if math.Abs(cost.Float-want.cost) > paperTol ||
			math.Abs(left.Float-want.left) > paperTol ||
			math.Abs(right.Float-want.right) > paperTol {
			t.Errorf("Table 3 row %d: span says %.4f → %.4f + %.4f, want %.2f → %.2f + %.2f",
				i, cost.Float, left.Float, right.Float, want.cost, want.left, want.right)
		}
	}

	// Every split parents to the one drp_allocate root span.
	roots := snap.Named("drp_allocate")
	if len(roots) != 1 {
		t.Fatalf("captured %d drp_allocate spans, want 1", len(roots))
	}
	for i, rec := range splits {
		if rec.Parent != roots[0].Span {
			t.Errorf("split %d parent %d, want root span %d", i, rec.Parent, roots[0].Span)
		}
	}
	if pol, _ := roots[0].Attr("policy"); pol.Str != "max-reduction" {
		t.Errorf("root policy attr = %+v", pol)
	}
	if cost, _ := roots[0].Attr("cost"); math.Abs(cost.Float-24.09) > paperTol {
		t.Errorf("root final cost %v, want 24.09 (Table 4(a))", cost.Float)
	}
}

// TestCDSTraceSpansMirrorMoves checks the cds_move spans: one per
// applied move, Eq. 4 delta and src/dst groups as attrs, tagged with
// the strategy, parented to a single cds_refine root, all in the same
// run as the DRP spans.
func TestCDSTraceSpansMirrorMoves(t *testing.T) {
	snap, _, moves := tracedPaperRun(t)

	if snap.RunID != "paper-example" {
		t.Fatalf("snapshot run ID = %q", snap.RunID)
	}
	recs := snap.Named("cds_move")
	if len(recs) != len(moves) {
		t.Fatalf("captured %d cds_move spans, want %d applied moves", len(recs), len(moves))
	}
	roots := snap.Named("cds_refine")
	if len(roots) != 1 {
		t.Fatalf("captured %d cds_refine spans, want 1", len(roots))
	}
	for i, rec := range recs {
		m := moves[i]
		pos, _ := rec.Attr("pos")
		src, _ := rec.Attr("src")
		dst, _ := rec.Attr("dst")
		delta, _ := rec.Attr("delta")
		after, _ := rec.Attr("cost_after")
		if int(pos.Int) != m.Pos || int(src.Int) != m.From || int(dst.Int) != m.To {
			t.Errorf("move %d span d?@%d ch%d→ch%d, trace %d ch%d→ch%d",
				i, pos.Int, src.Int, dst.Int, m.Pos, m.From, m.To)
		}
		if delta.Float != m.Reduction || after.Float != m.CostAfter {
			t.Errorf("move %d span Δc=%v after=%v, trace Δc=%v after=%v",
				i, delta.Float, after.Float, m.Reduction, m.CostAfter)
		}
		if strat, _ := rec.Attr("strategy"); strat.Str != "incremental" {
			t.Errorf("move %d strategy tag = %+v", i, strat)
		}
		if rec.Parent != roots[0].Span {
			t.Errorf("move %d parent %d, want refine span %d", i, rec.Parent, roots[0].Span)
		}
	}
	if mvs, _ := roots[0].Attr("moves"); int(mvs.Int) != len(moves) {
		t.Errorf("refine moves attr = %d, want %d", mvs.Int, len(moves))
	}
}

// TestAllocatorsQuietWithoutTracer: with no tracer injected and the
// process-wide default disabled, instrumented runs record nothing.
func TestAllocatorsQuietWithoutTracer(t *testing.T) {
	db := PaperExampleDatabase()
	a, err := NewDRP().Allocate(db, PaperExampleK)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCDS().Refine(a); err != nil {
		t.Fatal(err)
	}
	if n := len(trace.Default().Snapshot().Records); n != 0 {
		t.Fatalf("default tracer captured %d records while disabled", n)
	}
}

// TestCDSTraceKernelAttr checks the cds_refine span's kernel tag: the
// member scan the refinement actually ran, "avx2" only when the
// incremental selector built member arrays.
func TestCDSTraceKernelAttr(t *testing.T) {
	db := PaperExampleDatabase()
	a := randomAllocation(t, db, PaperExampleK, 1)
	for _, tc := range []struct {
		name  string
		strat CDSStrategy
		floor int
		want  string
	}{
		{"incremental scalar", StrategyIncremental, noKernel, "go"},
		{"incremental kernel", StrategyIncremental, 0, "avx2"},
		{"naive", StrategyNaive, 0, "go"},
	} {
		if tc.want == "avx2" && !haveAVX2() {
			continue
		}
		restore := setKernelFloor(tc.floor)
		tr := trace.New(trace.Config{Capacity: 64, Clock: &trace.ManualClock{}})
		if _, err := (&CDS{Strategy: tc.strat, Tracer: tr}).Refine(a); err != nil {
			t.Fatal(err)
		}
		restore()
		roots := tr.Snapshot().Named("cds_refine")
		if len(roots) != 1 {
			t.Fatalf("%s: captured %d cds_refine spans, want 1", tc.name, len(roots))
		}
		if got, _ := roots[0].Attr("kernel"); got.Str != tc.want {
			t.Errorf("%s: kernel attr = %+v, want %q", tc.name, got, tc.want)
		}
	}
}
