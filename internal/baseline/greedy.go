package baseline

import (
	"fmt"

	"diversecast/internal/core"
	"diversecast/internal/keyorder"
)

// Greedy is a longest-processing-time-style list allocator: items are
// considered in descending f·z mass and each goes to the channel whose
// cost grows the least. It is not in the paper; it serves as an
// additional non-contiguous baseline for the ablation benchmarks
// (unlike DRP it can interleave the benefit-ratio order, but unlike
// CDS it never revisits a placement).
type Greedy struct{}

var _ core.Allocator = (*Greedy)(nil)

// NewGreedy returns a greedy allocator.
func NewGreedy() *Greedy { return &Greedy{} }

// Name implements core.Allocator.
func (*Greedy) Name() string { return "GREEDY" }

// Allocate implements core.Allocator.
func (*Greedy) Allocate(db *core.Database, k int) (*core.Allocation, error) {
	if k < 1 || k > db.Len() {
		return nil, fmt.Errorf("baseline: %w: K=%d, N=%d", core.ErrBadChannelCount, k, db.Len())
	}
	order := make([]int, db.Len())
	for i := range order {
		order[i] = i
	}
	keyorder.Stable(order, func(p int) uint64 {
		it := db.Item(p)
		return keyorder.Descending(it.Freq * it.Size)
	})

	channel := make([]int, db.Len())
	agg := make([]core.GroupAgg, k)
	for _, pos := range order {
		it := db.Item(pos)
		best, bestDelta := 0, 0.0
		for c := 0; c < k; c++ {
			delta := (agg[c].F+it.Freq)*(agg[c].Z+it.Size) - agg[c].Cost()
			if c == 0 || delta < bestDelta {
				best, bestDelta = c, delta
			}
		}
		channel[pos] = best
		agg[best].F += it.Freq
		agg[best].Z += it.Size
		agg[best].N++
	}
	return core.NewAllocation(db, k, channel)
}
