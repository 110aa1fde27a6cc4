package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"diversecast/internal/obs/trace"
)

// Trace span names emitted by CDS. Snake_case per the obsnames
// convention; constants so the analyzer can see them.
const (
	spanCDSRefine = "cds_refine"
	spanCDSMove   = "cds_move"
)

// CDS is the paper's Cost-Diminishing Selection mechanism (Section
// 3.2): a steepest-descent local search over single-item moves.
//
// Each iteration evaluates, for every item d_x currently in group D_p
// and every destination group D_q ≠ D_p, the closed-form cost reduction
// of Eq. (4),
//
//	Δc = f_x(Z_p − Z_q) + z_x(F_p − F_q) − 2 f_x z_x,
//
// applies the move with the maximum strictly positive Δc, and repeats
// until no move reduces the cost — the local optimum. The naive
// strategy pays O(K·N) move evaluations per applied move (within the
// paper's stated O(K²N) bound); the incremental strategy exploits
// that a move D_p → D_q only changes those two groups' aggregates and
// members: it keeps a K×K table of per-(source, destination) champions
// or upper bounds, each anchored at the state of its last exact scan,
// and per move bounds the touched rows and columns afresh from their
// anchors in O(K), passes once over the K² cells for those that reach
// the running best (sixteen at a time in an AVX2 scan from K = 16 on),
// and rescans the members of only the cells whose bound could beat
// the best (see DESIGN.md §2). Both strategies select bit-for-bit
// identical moves.
type CDS struct {
	// MaxMoves bounds the number of applied moves; 0 means no bound.
	// None is needed for termination: the group sums are exact, so
	// the cost is a deterministic function of the allocation; every
	// applied move must lower it strictly or the refinement ends with
	// ErrNoProgress; and the allocations are finitely many, so none
	// repeats.
	MaxMoves int
	// Epsilon is the minimum Δc for a move to be applied. Zero selects
	// a default scaled to the problem (1e-12 × initial cost, floored
	// at 1e-300). The float cost sum over K groups errs by at most
	// about (K+2)·2⁻⁵³ of the cost, so under the default a move whose
	// exact Eq. (4) reduction exceeds ε cannot trip the ErrNoProgress
	// check while 2(K+2)·2⁻⁵³ < 1e-12, that is for K ≤ 4,500. A
	// caller-set Epsilon below the cost sum's rounding can.
	Epsilon float64
	// Strategy picks the move-selection engine. The zero value is
	// StrategyIncremental: the differential trace tests pin it to the
	// naive oracle's output, so the fast engine is the default.
	Strategy CDSStrategy

	// Tracer receives one cds_refine span per call, tagged with the
	// strategy and the member scan ("avx2" or "go"), with a cds_move
	// child per applied move (item, src/dst groups, the Eq. 4 Δc,
	// strategy tag). nil selects the process-wide trace.Default(),
	// which starts disabled, so the zero value stays probe-free until
	// a daemon enables tracing.
	Tracer *trace.Tracer
}

// CDSStrategy selects how CDS finds the best move each iteration.
// Both strategies produce move-for-move identical refinements (same
// tie-break order, same floating-point bits); they differ only in
// work per iteration.
type CDSStrategy int

const (
	// StrategyIncremental (the default) keeps, for every ordered pair
	// of groups (p, q), the best item of D_p to move to D_q or an upper
	// bound on its Δc, and per move rescans only the cells whose bound
	// could beat the best exact one.
	StrategyIncremental CDSStrategy = iota
	// StrategyNaive rescans every (item, destination) pair per
	// iteration — the paper's literal algorithm, kept as the oracle
	// for differential tests and benchmarks.
	StrategyNaive
)

// String returns the strategy name ("incremental" or "naive").
func (s CDSStrategy) String() string {
	switch s {
	case StrategyIncremental:
		return "incremental"
	case StrategyNaive:
		return "naive"
	default:
		return fmt.Sprintf("CDSStrategy(%d)", int(s))
	}
}

var _ Refiner = (*CDS)(nil)

// NewCDS returns a CDS refiner with default settings.
func NewCDS() *CDS { return &CDS{} }

// Name implements Refiner.
func (*CDS) Name() string { return "CDS" }

// ErrNoProgress ends a refinement whose applied move did not lower
// the exact cost: the selector claimed a Δc above Epsilon that the
// recomputed group costs do not bear out.
var ErrNoProgress = errors.New("core: CDS move did not lower the cost")

// Move records one applied CDS move for tracing (the paper's Table 4).
type Move struct {
	Pos        int     // database position of the moved item
	From, To   int     // channel indices
	Reduction  float64 // the Δc of Eq. (4), exact at the application state
	CostBefore float64
	CostAfter  float64
}

// Refine implements Refiner. The input allocation is not mutated.
func (c *CDS) Refine(a *Allocation) (*Allocation, error) {
	out, _, err := c.refine(a, false, nil)
	return out, err
}

// RefineWithTrace is Refine but also returns every applied move in
// order, used by the paper-table reproduction and by tests.
func (c *CDS) RefineWithTrace(a *Allocation) (*Allocation, []Move, error) {
	return c.refine(a, true, nil)
}

// moveSelector finds the best single-item move for the current
// allocation state. next returns the move with the maximum Δc under
// the canonical scan order (groups by channel index, items by
// database position within the group, destinations by channel index;
// strictly-larger-wins tie-break) and whether any strictly positive
// candidate exists. applied notifies the selector after a move has
// been applied and the aggregates updated; slot is the index the moved
// item left in its source group's position list, as move returns it.
type moveSelector interface {
	next() (Move, bool)
	applied(m Move, slot int)
	// stats reports the selector's work counters, flushed to obs
	// counters once per refinement.
	stats() selStats
}

// selStats aggregates the per-refinement selector counters.
type selStats struct {
	// scans counts selection sweeps (one per next call).
	scans int64
	// recomputed counts members scanned by exact cell scans (refreshes,
	// the table build included).
	recomputed int64
	// visited counts the cells pick's passes hand to the fresh/stale
	// test: those that reach the running best. The AVX2 pass scan and
	// the scalar loop visit the same cells, so the count is the same
	// on every host.
	visited int64
	// rescanned counts members exact cell scans read a second time,
	// comparing positions, because the first scan found its maximum
	// possibly tied.
	rescanned int64
	// relayouts counts the AVX2 member windows' layouts after the
	// first, each when a group outgrows its room; 0 with the scalar
	// loop.
	relayouts int64
}

// refine runs the descent. newSel, when non-nil, builds the selector
// in place of c.Strategy's, so tests can drive the loop with a double.
func (c *CDS) refine(a *Allocation, wantTrace bool, newSel func(*Allocation, []GroupAgg) moveSelector) (*Allocation, []Move, error) {
	if err := a.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: CDS input: %w", err)
	}
	cur := a.Clone()
	agg := cur.Aggregates()
	var cost float64
	for _, g := range agg {
		cost += g.Cost()
	}

	eps := c.Epsilon
	if eps == 0 {
		if cost > 0 {
			eps = 1e-12 * cost
		} else {
			eps = 1e-300
		}
	}

	var sel moveSelector
	// kernel names the member scan the refinement runs, for the trace.
	kernel := "go"
	switch {
	case newSel != nil:
		sel = newSel(cur, agg)
	case c.Strategy == StrategyNaive:
		sel = &naiveSelector{cur: cur, agg: agg}
	case c.Strategy == StrategyIncremental:
		inc := newIncrementalSelector(cur, agg)
		if inc.arr != nil {
			kernel = "avx2"
		}
		sel = inc
	default:
		return nil, nil, fmt.Errorf("core: CDS: unknown strategy %v", c.Strategy)
	}

	start := timeNow()
	var moves []Move
	applied := 0
	// stall is the move that failed to lower the cost, if stalled.
	var stall Move
	stalled := false

	tr := c.Tracer
	if tr == nil {
		tr = trace.Default()
	}
	var span trace.Span
	var stratTag trace.Attr
	if tr.Enabled() {
		strat := c.Strategy.String()
		stratTag = trace.Str("strategy", strat)
		span = tr.Start(spanCDSRefine, stratTag, trace.Str("kernel", kernel),
			trace.Int("n", int64(cur.db.Len())), trace.Int("k", int64(cur.k)),
			trace.Float("cost", cost))
	}

	for {
		// Bound on applied moves, not trace length: Refine (no trace)
		// must honor MaxMoves too.
		if c.MaxMoves > 0 && applied >= c.MaxMoves {
			break
		}

		best, found := sel.next()
		if !found || best.Reduction <= eps {
			break
		}

		// The move span covers applying the move, updating the two
		// touched groups' aggregates, and the selector's table
		// maintenance — the full per-iteration cost of the strategy in
		// use.
		var mv trace.Span
		if span.Active() {
			mv = span.Child(spanCDSMove,
				trace.Int("pos", int64(best.Pos)),
				trace.Int("src", int64(best.From)), trace.Int("dst", int64(best.To)),
				trace.Float("delta", best.Reduction),
				stratTag)
		}

		// move updates the two touched channels' exact sums, so agg
		// stays bit-for-bit a fresh Aggregates() call and the trace's
		// CostBefore/CostAfter are exactly Cost(cur) rather than
		// drifting away from it one subtraction at a time over long
		// refinements.
		slot := cur.move(best.Pos, best.To)
		agg[best.From], agg[best.To] = cur.groupAgg(best.From), cur.groupAgg(best.To)
		var newCost float64
		for _, g := range agg {
			newCost += g.Cost()
		}
		sel.applied(best, slot)
		if mv.Active() {
			mv.End(trace.Float("cost_after", newCost))
		}

		applied++
		best.CostBefore = cost
		best.CostAfter = newCost
		// The negated compare also stops on a NaN cost.
		if !(newCost < cost) {
			stall, stalled = best, true
			break
		}
		if wantTrace {
			//diverselint:ignore loopalloc move-history append runs only when the caller asked for a trace; the no-trace refinement path never reaches it
			moves = append(moves, best)
		}
		cost = newCost
	}
	cdsRefinements.Inc()
	cdsMoves.Add(int64(applied))
	st := sel.stats()
	cdsScans.Add(st.scans)
	cdsCandidatesRecomputed.Add(st.recomputed)
	cdsPassCells.Add(st.visited)
	cdsSeconds.Observe(timeNow().Sub(start).Seconds())
	if stalled {
		cdsNoProgress.Inc()
		if span.Active() {
			span.End(trace.Int("moves", int64(applied)), trace.Float("cost_after", stall.CostAfter),
				trace.Str("outcome", "no_progress"))
		}
		return nil, nil, fmt.Errorf("%w: item %d from channel %d to %d claimed Δc %g, cost %g -> %g",
			ErrNoProgress, stall.Pos, stall.From, stall.To, stall.Reduction, stall.CostBefore, stall.CostAfter)
	}
	if span.Active() {
		span.End(trace.Int("moves", int64(applied)), trace.Float("cost_after", cost))
	}
	// The moves left the position lists in any order; callers see them
	// ascending.
	cur.sortMembers()
	return cur, moves, nil
}

// naiveSelector is the paper's literal selection: every (item,
// destination) pair is re-evaluated each iteration, O(K·N)
// evaluations. It finds each group's members with the paper's O(K·N)
// filter, a walk of the channel vector in position order, so its scan
// order does not depend on the position lists, which the refinement's
// moves leave unsorted.
type naiveSelector struct {
	cur   *Allocation
	agg   []GroupAgg
	scans int64
}

func (s *naiveSelector) next() (Move, bool) {
	db := s.cur.Database()
	k := s.cur.K()
	s.scans++
	// Scan all (item, destination) pairs in the paper's order —
	// groups by channel index, items by database position within
	// the group, destinations by channel index — keeping only a
	// strictly larger Δc, so the selected move is deterministic.
	best := Move{Reduction: 0}
	found := false
	for p := 0; p < k; p++ {
		for pos, c := range s.cur.channel {
			if c != p {
				continue
			}
			it := db.Item(pos)
			for q := 0; q < k; q++ {
				if q == p {
					continue
				}
				dc := MoveReduction(it, s.agg[p], s.agg[q])
				if dc > best.Reduction {
					best = Move{Pos: pos, From: p, To: q, Reduction: dc}
					found = true
				}
			}
		}
	}
	return best, found
}

func (s *naiveSelector) applied(Move, int) {}

func (s *naiveSelector) stats() selStats { return selStats{scans: s.scans} }

// cdsItem caches the item constants of Eq. (4): frequency, size, and
// the term 2·fₓ·zₓ computed with exactly the expression MoveReduction
// uses (left-associated 2*f*z), so substituting it reproduces
// MoveReduction's float bits while sparing two multiplies per
// evaluated destination.
type cdsItem struct {
	f, z, tfz float64
}

// incrementalSelector is the lazy-bound pair table. Cell (p, q) stands
// for the moves from group D_p to group D_q and is either
//   - fresh (pos ≥ 0): dc is the exact maximum Δc over D_p's members
//     toward D_q and pos the smallest position attaining it, the item
//     the naive scan meets first; or
//   - stale (pos = −1): dc is an upper bound on every member's Δc as
//     Eq. 4 computes it in floating point.
//
// Diagonal cells and the rows of empty groups hold (−Inf, −1): stale,
// with a bound no pick threshold reaches.
//
// Every cell also keeps its anchor, the state of its last exact scan.
// A move from → to changes only agg[from], agg[to] and the membership
// of those two groups, so applied touches only rows and columns from
// and to, in O(K) and without evaluating any member but the moved one
// (see DESIGN.md §2 for the proofs): it folds the moved item into row
// to's anchors, and bounds every touched cell afresh from its anchor by
// the net rise of its aggregate differences since that scan, plus a
// rounding slack. pick then refreshes (rescans exactly) only the stale
// cells whose bound could beat the best fresh cell.
type incrementalSelector struct {
	cur *Allocation
	agg []GroupAgg
	k   int
	fzt []cdsItem // per database position
	// arr is the member arrays refresh's AVX2 kernel streams; nil below
	// the kernel's crossover or without AVX2, where refresh gathers fzt.
	arr *memberArrays
	// dc and pos are the K×K cells, row-major by source group.
	dc  []float64
	pos []int32
	// anc holds every cell's anchor, in dc's layout.
	anc []anchor
	// lim holds, per group, upper bounds on its members' f, z and
	// 2·f·z, and the rounding slack they imply. They only grow: a
	// member leaving keeps them valid.
	lim []rowLim
	// zcap and fcap bound Z_p+Z_q and F_p+F_q for any two groups.
	zcap, fcap float64
	// passKernel is whether pick's pass runs through the AVX2 pass
	// scan: K ≥ passFloor.
	passKernel bool
	// cont is pick's contender scratch: up to K² stale cell indices.
	cont       []int32
	champ      Move
	champFound bool
	scans      int64
	recomputed int64
	visited    int64
	rescanned  int64
}

// anchor is the state of a cell's last exact scan: the aggregate
// differences dz = Z_p−Z_q and df = F_p−F_q it ran at, and v, at least
// every member's Δc evaluated at that dz and df (the scan's maximum,
// raised by the members that joined since; those that left need
// nothing).
type anchor struct {
	v, dz, df float64
}

// rowLim is a group's member maxima f̂, ẑ, t̂ and its rounding slack
// σ·(f̂·zcap + ẑ·fcap + t̂), kept beside them for the bound's column
// walks.
type rowLim struct {
	f, z, tfz, slack float64
}

const (
	// boundSlack is σ: times a row's magnitude T = f̂·zcap + ẑ·fcap + t̂
	// it is the rounding slack every anchored bound gets. 2⁻⁴⁷ is 64
	// units of roundoff, where the proof in DESIGN.md §2 needs 14.
	boundSlack = 0x1p-47
	// boundRel is ρ: times |bound| it covers rounding the bound's own
	// sums. 2⁻⁵⁰ is 8 units of roundoff, where the proof needs 2.
	boundRel = 0x1p-50
	// capPad lifts the float sum of N positive values above 1+u times
	// their exact sum, and so above any two groups' aggregates (each
	// its exact sum rounded once) together, for N < 2³¹ (positions
	// are int32).
	capPad = 1 + 0x1p-20
)

func newIncrementalSelector(cur *Allocation, agg []GroupAgg) *incrementalSelector {
	k := len(agg)
	s := &incrementalSelector{
		cur: cur, agg: agg, k: k,
		fzt:  make([]cdsItem, cur.db.Len()),
		dc:   make([]float64, k*k),
		pos:  make([]int32, k*k),
		anc:  make([]anchor, k*k),
		lim:  make([]rowLim, k),
		cont: make([]int32, k*k),
		zcap: cur.db.totalSize * capPad,
		fcap: cur.db.totalFreq * capPad,

		passKernel: k >= passFloor,
	}
	for i, it := range cur.db.items {
		x := cdsItem{f: it.Freq, z: it.Size, tfz: 2 * it.Freq * it.Size}
		s.fzt[i] = x
		s.raiseLim(cur.channel[i], x)
	}
	if cur.db.Len()/k >= kernelFloor {
		s.arr = newMemberArrays(cur, s.fzt)
	}
	negInf := math.Inf(-1)
	for p := 0; p < k; p++ {
		for q := 0; q < k; q++ {
			if q == p {
				s.dc[p*k+q], s.pos[p*k+q] = negInf, -1
				continue
			}
			s.refresh(p*k+q, p)
		}
	}
	s.pick()
	return s
}

// raiseLim folds item x into group g's f/z/2fz maxima and, if they
// grew, recomputes the group's slack.
func (s *incrementalSelector) raiseLim(g int, x cdsItem) {
	l := &s.lim[g]
	if x.f <= l.f && x.z <= l.z && x.tfz <= l.tfz {
		return
	}
	l.f, l.z, l.tfz = max(l.f, x.f), max(l.z, x.z), max(l.tfz, x.tfz)
	l.slack = boundSlack * (l.f*s.zcap + l.z*s.fcap + l.tfz)
}

// bound is cell c's bound from its anchor, for a source group with
// aggregates ap and limits l toward one with aq: the anchor's v, plus
// the row's maxima times how far Z_p−Z_q and F_p−F_q rose since the
// anchoring scan (a net fall credits nothing), plus the row's slack,
// plus ρ·|bound| for the bound's own rounding. ap must not be empty:
// an empty group's anchors may hold −Inf, and −Inf + Inf·ρ is NaN.
func (s *incrementalSelector) bound(c int, ap, aq GroupAgg, l rowLim) float64 {
	a := s.anc[c]
	b := a.v + (l.f*max(ap.Z-aq.Z-a.dz, 0) + l.z*max(ap.F-aq.F-a.df, 0) + l.slack)
	return b + math.Abs(b)*boundRel
}

// refresh recomputes cell c of row p exactly: the maximum Δc of D_p's
// members toward the cell's destination and the smallest position
// attaining it, the member the naive scan meets first. The members come
// in their list's order, which moves leave unsorted, so the scan
// (maxFirst, or with member arrays the AVX2 kernel) reports whether its
// maximum may be tied; only then does a second scan compare positions
// (maxByPosition). DESIGN.md §2 proves the pair equal to the naive
// scan's choice. The cell is anchored at the scan: its maximum and the
// differences it ran at.
func (s *incrementalSelector) refresh(c, p int) {
	ap, aq := s.agg[p], s.agg[c-p*s.k]
	dz, df := ap.Z-aq.Z, ap.F-aq.F
	members := s.cur.ChannelPositions(p)
	s.recomputed += int64(len(members))
	var best int64
	var bestPos int32
	var tied bool
	if s.arr != nil {
		best, bestPos, tied = s.arr.scan(p, members, s.fzt, dz, df)
	} else {
		best, bestPos, tied = maxFirst(members, s.fzt, dz, df)
	}
	if tied {
		s.rescanned += int64(len(members))
		best, bestPos = maxByPosition(members, s.fzt, dz, df)
	}
	s.dc[c], s.pos[c] = keyFloat(best), bestPos
	s.anc[c] = anchor{v: s.dc[c], dz: dz, df: df}
}

// orderKey maps x to an int64 that orders like x for every non-NaN
// value, except that −0 sorts below +0. Neither exception reaches the
// table: Eq. 4 has no NaN on validated items, and no Δc is −0 (the
// aggregates are sums of positive values started from +0, so no
// difference, product or sum in it is −0). keyFloat inverts it bit
// for bit.
func orderKey(x float64) int64 {
	b := int64(math.Float64bits(x))
	return b ^ (b >> 63 & math.MaxInt64)
}

func keyFloat(k int64) float64 {
	return math.Float64frombits(uint64(k ^ (k >> 63 & math.MaxInt64)))
}

// pick finds the move next hands out: the naive scan's first strictly
// positive maximum. One pass over the K² cells, rows by ascending
// source and cells by ascending destination, keeps the best fresh cell
// and collects the stale cells whose bound reaches the running best;
// each contender that could still precede the best is then refreshed
// and compared in turn. From K = passFloor on, the pass skips the cells
// below the running best sixteen at a time in the AVX2 pass scan and
// hands the scalar loop only the rest of the table after the last full
// block; both visit the same cells in the same order (DESIGN.md §2).
func (s *incrementalSelector) pick() {
	k := s.k
	best, bestRow, bestDC := -1, -1, 0.0
	n, visited := 0, int64(0)
	// c0 is the first cell the scalar loop visits.
	c0 := 0
	if s.passKernel {
		dcs := s.dc
		n16 := len(dcs) &^ 15
		p, rowEnd := 0, k
		for c0 < n16 {
			at, mask := passScanAVX2(&dcs[c0], n16-c0, bestDC)
			block := c0 + at
			// The block was scanned under a threshold no higher than
			// bestDC, so its mask holds every cell the scalar loop
			// visits and maybe more; the re-check drops the rest.
			for ; mask != 0; mask &= mask - 1 {
				c := block + bits.TrailingZeros64(mask)
				dc := dcs[c]
				if dc < bestDC {
					continue
				}
				for c >= rowEnd {
					p, rowEnd = p+1, rowEnd+k
				}
				visited++
				if s.pos[c] < 0 {
					s.cont[n] = int32(c)
					n++
				} else if s.precedes(c, p, dc, best, bestRow, bestDC) {
					best, bestRow, bestDC = c, p, dc
				}
			}
			c0 = block + 16
		}
		c0 = n16
	}
	for p := c0 / k; p < k; p++ {
		for c := max(p*k, c0); c < (p+1)*k; c++ {
			// Few cells reach the running best, so test that first: a
			// branch on fresh versus stale alone would mispredict on the
			// table's mix of the two.
			dc := s.dc[c]
			if dc < bestDC {
				continue
			}
			visited++
			if s.pos[c] < 0 {
				s.cont[n] = int32(c)
				n++
			} else if s.precedes(c, p, dc, best, bestRow, bestDC) {
				best, bestRow, bestDC = c, p, dc
			}
		}
	}
	s.visited += visited
	for _, c32 := range s.cont[:n] {
		c := int(c32)
		p := c / k
		if !s.precedes(c, p, s.dc[c], best, bestRow, bestDC) {
			continue
		}
		s.refresh(c, p)
		if dc := s.dc[c]; s.precedes(c, p, dc, best, bestRow, bestDC) {
			best, bestRow, bestDC = c, p, dc
		}
	}
	if best < 0 {
		s.champ, s.champFound = Move{}, false
		return
	}
	s.champ = Move{Pos: int(s.pos[best]), From: bestRow, To: best - bestRow*k, Reduction: bestDC}
	s.champFound = true
}

// precedes reports whether cell c of row p, holding dc, comes before
// the cell best of row bestRow, holding bestDC, in the naive scan's
// order: Δc descending, then source, position and destination
// ascending. best < 0 stands for no move yet, which only a strictly
// positive Δc precedes. For a stale cell dc is its bound, and the
// answer is whether any of its moves could come first.
func (s *incrementalSelector) precedes(c, p int, dc float64, best, bestRow int, bestDC float64) bool {
	//diverselint:ignore floateq deliberate exact tie-break: equal Δc must resolve by (source, position, destination) exactly like the naive scan order
	if dc != bestDC || best < 0 {
		return dc > bestDC
	}
	if p != bestRow {
		return p < bestRow
	}
	pos, bestPos := s.pos[c], s.pos[best]
	return pos < 0 || pos < bestPos || pos == bestPos && c < best
}

//diverselint:hotpath per-selection champion handoff
func (s *incrementalSelector) next() (Move, bool) {
	// The champion is picked by the constructor and by applied; the
	// counter still tallies one logical scan per selection for
	// comparability with the naive strategy.
	s.scans++
	return s.champ, s.champFound
}

//diverselint:hotpath per-move pair-table update
func (s *incrementalSelector) applied(m Move, slot int) {
	// refine updated agg and the member lists before notifying us.
	k, from, to := s.k, m.From, m.To
	x := s.fzt[m.Pos]
	s.raiseLim(to, x)
	if s.arr != nil {
		s.arr.moved(s.cur, s.fzt, m.Pos, from, to, slot)
	}

	// x joins to: fold its Δc at each anchor of row to into that
	// anchor, evaluated as refresh would have (MoveReduction with the
	// aggregate differences and the 2·f·z term hoisted).
	for q := range k {
		if a := &s.anc[to*k+q]; q != to {
			a.v = max(a.v, x.f*a.dz+x.z*a.df-x.tfz)
		}
	}
	// Every cell whose aggregates changed turns stale, bounded from its
	// anchor: rows from and to, then columns from and to outside them.
	// An empty group's row is exactly −Inf: from's if x was its last
	// member, and those of groups already empty, which stay as they are.
	negInf := math.Inf(-1)
	for _, p := range [2]int{from, to} {
		ap, l := s.agg[p], s.lim[p]
		for q, aq := range s.agg {
			if c := p*k + q; q != p {
				s.dc[c], s.pos[c] = negInf, -1
				if ap.N > 0 {
					s.dc[c] = s.bound(c, ap, aq, l)
				}
			}
		}
	}
	for _, q := range [2]int{from, to} {
		aq := s.agg[q]
		for p, ap := range s.agg {
			if c := p*k + q; p != from && p != to && ap.N > 0 {
				s.dc[c], s.pos[c] = s.bound(c, ap, aq, s.lim[p]), -1
			}
		}
	}
	s.pick()
}

func (s *incrementalSelector) stats() selStats {
	st := selStats{scans: s.scans, recomputed: s.recomputed, visited: s.visited, rescanned: s.rescanned}
	if s.arr != nil {
		st.relayouts = s.arr.relayouts
	}
	return st
}
