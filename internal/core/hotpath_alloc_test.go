package core

import (
	"testing"

	"diversecast/internal/alloctest"
)

// The gate tests below bind every //diverselint:hotpath root in this
// package to testing.AllocsPerRun: the static passes prove no
// allocation site is reachable from these roots, and these tests
// prove the compiled code agrees.
//
// The selectors are driven with a synthetic ping-pong: one item moves
// to the next group round-robin, the two touched groups' sums and
// aggregates are updated exactly as refine does, and the selector is
// notified. The moves are not cost-reducing — allocation behavior is
// what is measured — but the invariant the selectors rely on (agg
// bit-exact with the allocation at applied time) holds at every step.

// pingPong returns a closure performing one synthetic refine
// iteration against sel.
func pingPong(cur *Allocation, agg []GroupAgg, sel moveSelector) func() {
	g := cur.ChannelOf(0)
	k := len(agg)
	return func() {
		h := (g + 1) % k
		applyMove(cur, agg, sel, Move{Pos: 0, From: g, To: h})
		g = h
	}
}

func TestHotPathContractsAllocFree(t *testing.T) {
	db := randomDatabase(t, 11, 96)
	base := randomAllocation(t, db, 6, 7)

	// The per-move aggregate update alone: the ping-pong item's
	// frequency and size move between two groups' exact sums, and both
	// groups' aggregates are read back, as refine does per move.
	t.Run("moveSums", func(t *testing.T) {
		cur := base.Clone()
		agg := cur.Aggregates()
		g := cur.ChannelOf(0)
		h := (g + 1) % len(agg)
		alloctest.MustZeroAllocs(t, "Allocation.moveSums", 2, func() {
			cur.moveSums(0, g, h)
			agg[g], agg[h] = cur.groupAgg(g), cur.groupAgg(h)
			cur.moveSums(0, h, g)
			agg[g], agg[h] = cur.groupAgg(g), cur.groupAgg(h)
		})
	})

	t.Run("incrementalSelector", func(t *testing.T) {
		cur := base.Clone()
		agg := cur.Aggregates()
		sel := newIncrementalSelector(cur, agg)
		alloctest.MustZeroAllocs(t, "incrementalSelector.next", 2, func() {
			sel.next()
		})
		alloctest.MustZeroAllocs(t, "incrementalSelector.applied", 2, pingPong(cur, agg, sel))
	})

	// The gate above runs the scalar refresh (N=96 over K=6 is below
	// the kernel's crossover); this one is large enough for the default
	// crossover to build the member arrays, so applied moves them and
	// refreshes through the AVX2 kernel.
	t.Run("incrementalSelectorKernel", func(t *testing.T) {
		if !haveAVX2() {
			t.Skip("no AVX2 on this host")
		}
		db := randomDatabase(t, 11, 6*kernelMinMean)
		cur := randomAllocation(t, db, 6, 7)
		agg := cur.Aggregates()
		sel := newIncrementalSelector(cur, agg)
		if sel.arr == nil {
			t.Fatalf("N=%d over K=6 built no member arrays", db.Len())
		}
		alloctest.MustZeroAllocs(t, "incrementalSelector.applied (kernel)", 2, pingPong(cur, agg, sel))
		alloctest.MustZeroAllocs(t, "memberArrays.layout", 2, func() {
			sel.arr.layout(cur, sel.fzt)
		})
	})
}
