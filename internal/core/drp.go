package core

import (
	"fmt"

	"diversecast/internal/obs/trace"
	"diversecast/internal/pqueue"
)

// Trace span and event names emitted by DRP. Snake_case per the
// obsnames convention; constants so the analyzer can see them.
const (
	spanDRPAllocate   = "drp_allocate"
	spanDRPSplit      = "drp_split"
	eventDRPSingleton = "drp_singleton"
)

// DRP is the paper's Dimension Reduction Partitioning allocator
// (Section 3.1): a top-down group-splitting heuristic.
//
// Items are sorted by benefit ratio br = f/z in descending order, which
// reduces the two-dimensional (frequency, size) grouping problem to a
// one-dimensional partitioning problem: every group DRP produces is a
// contiguous run of the br-sorted sequence. Starting from the single
// group D, a max priority queue keyed by group cost repeatedly pops the
// costliest group and splits it at the contiguous cut point that
// minimizes the summed cost of the two halves, until K groups remain.
//
// Complexity: O(N) for the benefit-ratio order (ByBenefitRatio's
// radix sort over the ratios' bit patterns) and O(N) for the prefix
// sums, plus K·(O(K log K) + O(N)) for the splits as in the paper's
// Lemma 1: each of the K−1 iterations pays a heap operation plus a
// linear scan for the best cut. The lemma starts from sorted items.
//
// The zero value is ready to use and follows the paper's published
// pseudocode (PolicyMaxCost).
type DRP struct {
	// Policy selects which group each iteration splits. The paper's
	// pseudocode pops the group with the maximum cost
	// (PolicyMaxCost, the default). The paper's worked example
	// (Table 3) is, however, inconsistent with that rule: its fourth
	// iteration splits the cost-7.02 group while a cost-7.26 group
	// is queued. The example is instead consistent with popping the
	// group whose best split yields the largest cost reduction
	// (PolicyMaxReduction), which the golden tests and
	// examples/papertables therefore use. The two policies differ
	// only in split order; both produce K contiguous br-order groups.
	Policy SplitPolicy

	// Tracer receives one drp_allocate span per call with a drp_split
	// child per iteration (popped range, chosen cut, cost reduction).
	// nil selects the process-wide trace.Default(), which starts
	// disabled, so the zero value stays probe-free until a daemon
	// enables tracing.
	Tracer *trace.Tracer
}

// SplitPolicy selects the group-popping rule of DRP; see DRP.Policy.
type SplitPolicy int

const (
	// PolicyMaxCost pops the group with the largest cost F·Z, as in
	// the paper's published pseudocode (Definition 2, ReturnMax).
	PolicyMaxCost SplitPolicy = iota
	// PolicyMaxReduction pops the group whose optimal split reduces
	// the total cost the most, matching the paper's worked example.
	PolicyMaxReduction
)

// String returns the policy name.
func (p SplitPolicy) String() string {
	switch p {
	case PolicyMaxCost:
		return "max-cost"
	case PolicyMaxReduction:
		return "max-reduction"
	default:
		return "unknown"
	}
}

var _ Allocator = (*DRP)(nil)

// NewDRP returns a DRP allocator with the published max-cost policy.
func NewDRP() *DRP { return &DRP{} }

// NewDRPExampleConsistent returns a DRP allocator using the
// max-reduction policy that reproduces the paper's worked example.
func NewDRPExampleConsistent() *DRP { return &DRP{Policy: PolicyMaxReduction} }

// Name implements Allocator.
func (*DRP) Name() string { return "DRP" }

// Allocate implements Allocator.
func (d *DRP) Allocate(db *Database, k int) (*Allocation, error) {
	a, _, err := d.allocate(db, k, false)
	return a, err
}

// splitEntry is a heap element: a range plus its precomputed optimal
// cut (cut < 0 when the range is a singleton and cannot be split).
type splitEntry struct {
	GroupRange
	cut      int
	splitSum float64 // cost(left)+cost(right) at the optimal cut
}

// reduction is the total-cost decrease the optimal split achieves.
func (e splitEntry) reduction() float64 { return e.Cost - e.splitSum }

// SplitStep records one DRP iteration for tracing (the paper's Table
// 3): the popped group and the two halves it was split into, all as
// ranges of the br-sorted order with their costs.
type SplitStep struct {
	Popped      GroupRange
	Left, Right GroupRange
}

// GroupRange is a contiguous run [Lo, Hi) of the br-sorted item order
// together with its group cost F·Z.
type GroupRange struct {
	Lo, Hi int
	Cost   float64
}

// Trace holds the full DRP execution history alongside the result. The
// Order field gives the br-descending permutation of database
// positions that all ranges index into.
type Trace struct {
	Order []int
	Init  GroupRange
	Steps []SplitStep
	Final []GroupRange
}

// AllocateWithTrace is Allocate but also returns the iteration history,
// used by the paper-table reproduction and by tests.
func (d *DRP) AllocateWithTrace(db *Database, k int) (*Allocation, *Trace, error) {
	return d.allocate(db, k, true)
}

//diverselint:coldpath one-shot channel planning, O(N) key order plus K·(O(K log K) + O(N)) split scans and heap, not per-broadcast-cycle
func (d *DRP) allocate(db *Database, k int, wantTrace bool) (*Allocation, *Trace, error) {
	n := db.Len()
	if k < 1 || k > n {
		return nil, nil, fmt.Errorf("%w: K=%d, N=%d", ErrBadChannelCount, k, n)
	}
	start := timeNow()
	defer func() { drpSeconds.Observe(timeNow().Sub(start).Seconds()) }()

	tr := d.Tracer
	if tr == nil {
		tr = trace.Default()
	}
	var span trace.Span
	if tr.Enabled() {
		span = tr.Start(spanDRPAllocate,
			trace.Str("policy", d.Policy.String()),
			trace.Int("n", int64(n)), trace.Int("k", int64(k)))
	}

	order := db.ByBenefitRatio()

	// Prefix sums over the sorted order: pf[i] = Σ freq of the first i
	// sorted items, pz likewise for size. Range aggregates and
	// therefore range costs are O(1).
	pf := make([]float64, n+1)
	pz := make([]float64, n+1)
	for i, pos := range order {
		it := db.Item(pos)
		pf[i+1] = pf[i] + it.Freq
		pz[i+1] = pz[i] + it.Size
	}
	rangeCost := func(lo, hi int) float64 {
		return (pf[hi] - pf[lo]) * (pz[hi] - pz[lo])
	}

	// makeEntry runs Procedure Partition(D_x) eagerly: it finds the
	// cut p minimizing cost(left)+cost(right) (smallest p wins ties),
	// so popping is O(1) regardless of policy.
	makeEntry := func(lo, hi int) splitEntry {
		e := splitEntry{GroupRange: GroupRange{Lo: lo, Hi: hi, Cost: rangeCost(lo, hi)}, cut: -1}
		for p := lo + 1; p < hi; p++ {
			c := rangeCost(lo, p) + rangeCost(p, hi)
			if e.cut < 0 || c < e.splitSum {
				e.cut, e.splitSum = p, c
			}
		}
		return e
	}

	// Max priority queue keyed per the configured policy; ties break
	// on the lower start index for determinism.
	key := func(e splitEntry) float64 {
		if d.Policy == PolicyMaxReduction {
			if e.cut < 0 {
				return -1 // singletons reduce nothing; never preferred
			}
			return e.reduction()
		}
		return e.Cost
	}
	pq := pqueue.New(func(a, b splitEntry) bool {
		ka, kb := key(a), key(b)
		//diverselint:ignore floateq deliberate exact tie-break: comparator needs a strict weak order, an epsilon would break transitivity
		if ka != kb {
			return ka > kb
		}
		return a.Lo < b.Lo
	})
	whole := makeEntry(0, n)
	pq.Push(whole)

	var hist *Trace
	if wantTrace {
		hist = &Trace{Order: order, Init: whole.GroupRange}
	}

	// Singleton ranges cannot be split further; they leave the queue
	// and count toward the K groups directly.
	var done []splitEntry

	for pq.Len()+len(done) < k {
		g, ok := pq.Pop()
		if !ok {
			// Unreachable when K ≤ N: N items always admit N
			// singleton groups.
			return nil, nil, fmt.Errorf("core: DRP exhausted splittable groups at %d of %d", len(done), k)
		}
		if g.cut < 0 {
			if span.Active() {
				span.Event(eventDRPSingleton,
					trace.Int("lo", int64(g.Lo)), trace.Int("hi", int64(g.Hi)),
					trace.Float("cost", g.Cost))
			}
			done = append(done, g)
			continue
		}

		// The split span covers the two Partition(D_x) scans that the
		// split pays for its halves; its attrs are the Table 3 row —
		// popped range, chosen cut, costs before/after, reduction.
		var sp trace.Span
		if span.Active() {
			sp = span.Child(spanDRPSplit,
				trace.Int("lo", int64(g.Lo)), trace.Int("hi", int64(g.Hi)),
				trace.Int("cut", int64(g.cut)),
				trace.Float("cost", g.Cost))
		}
		left := makeEntry(g.Lo, g.cut)
		right := makeEntry(g.cut, g.Hi)
		pq.Push(left)
		pq.Push(right)
		if sp.Active() {
			sp.End(
				trace.Float("left_cost", left.Cost),
				trace.Float("right_cost", right.Cost),
				trace.Float("delta", g.reduction()))
		}
		if wantTrace {
			hist.Steps = append(hist.Steps, SplitStep{Popped: g.GroupRange, Left: left.GroupRange, Right: right.GroupRange})
		}
	}

	final := make([]GroupRange, 0, k)
	for _, e := range append(done, pq.Drain()...) {
		final = append(final, e.GroupRange)
	}
	// Channels are numbered by position in the br order so that channel
	// 0 carries the highest-benefit-ratio items; this is stable across
	// runs and matches the paper's presentation.
	sortRangesByLo(final)

	channel := make([]int, n)
	for c, g := range final {
		for i := g.Lo; i < g.Hi; i++ {
			channel[order[i]] = c
		}
	}
	if wantTrace {
		hist.Final = final
	}
	a, err := NewAllocation(db, k, channel)
	if err != nil {
		return nil, nil, err
	}
	if span.Active() {
		var total float64
		for _, g := range final {
			total += g.Cost
		}
		span.End(trace.Int("groups", int64(len(final))), trace.Float("cost", total))
	}
	return a, hist, nil
}

func sortRangesByLo(rs []GroupRange) {
	// Insertion sort: K is small (single digits in the paper) and this
	// avoids pulling in sort for a 3-line need.
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Lo < rs[j-1].Lo; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
