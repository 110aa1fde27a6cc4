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
// to the next group round-robin, the two touched groups' aggregates
// are reconciled exactly as refine does, and the selector is
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
		cur.move(0, h)
		reconcileGroup(cur, agg, g)
		reconcileGroup(cur, agg, h)
		sel.applied(Move{Pos: 0, From: g, To: h})
		g = h
	}
}

func TestHotPathContractsAllocFree(t *testing.T) {
	db := randomDatabase(t, 11, 96)
	base := randomAllocation(t, db, 6, 7)

	t.Run("reconcileGroup", func(t *testing.T) {
		cur := base.Clone()
		agg := cur.Aggregates()
		alloctest.MustZeroAllocs(t, "reconcileGroup", 2, func() {
			reconcileGroup(cur, agg, 0)
			reconcileGroup(cur, agg, 1)
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
}
