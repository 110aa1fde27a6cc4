package core

import (
	"fmt"
	"math"

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
// or upper bounds, updates the touched rows and columns in O(K) per
// move, and rescans only the cells whose bound could beat the best
// (see DESIGN.md §2). Both strategies select bit-for-bit identical
// moves.
type CDS struct {
	// MaxMoves bounds the number of applied moves; 0 means no bound
	// beyond Epsilon-driven termination. Cost strictly decreases by
	// more than Epsilon per move and is bounded below by zero, so
	// termination is guaranteed either way.
	MaxMoves int
	// Epsilon is the minimum Δc for a move to be applied, guarding
	// against floating-point non-termination. Zero selects a default
	// scaled to the problem (1e-12 × initial cost, floored at 1e-300).
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

// ParseCDSStrategy maps a strategy name back to its value — the exact
// inverse of String over both engines — for flag and config plumbing.
func ParseCDSStrategy(name string) (CDSStrategy, error) {
	switch name {
	case "incremental":
		return StrategyIncremental, nil
	case "naive":
		return StrategyNaive, nil
	default:
		return 0, fmt.Errorf("core: unknown CDS strategy %q (want incremental or naive)", name)
	}
}

var _ Refiner = (*CDS)(nil)

// NewCDS returns a CDS refiner with default settings.
func NewCDS() *CDS { return &CDS{} }

// Name implements Refiner.
func (*CDS) Name() string { return "CDS" }

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
	out, _, err := c.refine(a, false)
	return out, err
}

// RefineWithTrace is Refine but also returns every applied move in
// order, used by the paper-table reproduction and by tests.
func (c *CDS) RefineWithTrace(a *Allocation) (*Allocation, []Move, error) {
	return c.refine(a, true)
}

// moveSelector finds the best single-item move for the current
// allocation state. next returns the move with the maximum Δc under
// the canonical scan order (groups by channel index, items by
// database position within the group, destinations by channel index;
// strictly-larger-wins tie-break) and whether any strictly positive
// candidate exists. applied notifies the selector after a move has
// been applied and the aggregates reconciled.
type moveSelector interface {
	next() (Move, bool)
	applied(Move)
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
}

func (c *CDS) refine(a *Allocation, wantTrace bool) (*Allocation, []Move, error) {
	if err := a.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: CDS input: %w", err)
	}
	cur := a.Clone()
	agg := cur.Aggregates()

	eps := c.Epsilon
	if eps == 0 {
		if init := Cost(cur); init > 0 {
			eps = 1e-12 * init
		} else {
			eps = 1e-300
		}
	}

	var sel moveSelector
	// kernel names the member scan the refinement runs, for the trace.
	kernel := "go"
	switch c.Strategy {
	case StrategyNaive:
		sel = &naiveSelector{cur: cur, agg: agg}
	case StrategyIncremental:
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
	cost := Cost(cur)

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

		// The move span covers applying the move, reconciling the two
		// touched groups, and the selector's table maintenance —
		// the full per-iteration cost of the strategy in use.
		var mv trace.Span
		if span.Active() {
			mv = span.Child(spanCDSMove,
				trace.Int("pos", int64(best.Pos)),
				trace.Int("src", int64(best.From)), trace.Int("dst", int64(best.To)),
				trace.Float("delta", best.Reduction),
				stratTag)
		}

		cur.move(best.Pos, best.To)
		// Reconcile instead of tracking incrementally: rebuild the two
		// touched groups from the allocation in the same accumulation
		// order Aggregates uses (ascending position within the group).
		// Untouched groups were exact before the move, so by induction
		// agg stays bit-for-bit equal to a fresh Aggregates() call, and
		// the trace's CostBefore/CostAfter stay exactly Cost(cur)
		// instead of drifting away from it (one subtraction at a time)
		// over long refinements. O(|D_p|+|D_q|) per applied move via
		// the per-channel position lists.
		reconcileGroup(cur, agg, best.From)
		reconcileGroup(cur, agg, best.To)
		var newCost float64
		for _, g := range agg {
			newCost += g.Cost()
		}
		sel.applied(best)
		if mv.Active() {
			mv.End(trace.Float("cost_after", newCost))
		}

		applied++
		if wantTrace {
			best.CostBefore = cost
			best.CostAfter = newCost
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
	cdsSeconds.Observe(timeNow().Sub(start).Seconds())
	if span.Active() {
		span.End(trace.Int("moves", int64(applied)), trace.Float("cost_after", cost))
	}
	return cur, moves, nil
}

// reconcileGroup rebuilds agg[g] from the allocation with groupAgg,
// the routine Aggregates runs per group, so the result is bit-for-bit
// what a full recomputation would produce.
//
//diverselint:hotpath per-applied-move aggregate reconciliation
func reconcileGroup(cur *Allocation, agg []GroupAgg, g int) {
	agg[g] = cur.groupAgg(g)
}

// naiveSelector is the paper's literal selection: every (item,
// destination) pair is re-evaluated each iteration. The per-channel
// position lists spare it the former O(K·N) membership filter, but
// the scan itself remains O(K·N) evaluations.
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
		for _, pos := range s.cur.ChannelPositions(p) {
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

func (s *naiveSelector) applied(Move) {}

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
// A move from → to changes only agg[from], agg[to] and the membership
// of those two groups, so applied touches only rows and columns from
// and to, in O(K) and without evaluating any member but the moved one
// (see DESIGN.md §2 for the proofs):
//   - row from and column to can only fall, so their values stay as
//     bounds;
//   - row to and column from rise by at most the aggregate rises times
//     the row's largest f and z, plus a rounding slack; the moved item's
//     own Δc toward every destination is folded into row to.
//
// pick then refreshes (rescans exactly) only the stale cells whose
// bound could beat the best fresh cell.
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
	// prev is agg as of the last table update: refine reconciles agg
	// before applied runs, and the bounds rise by the difference.
	prev []GroupAgg
	// lim holds, per group, upper bounds on its members' f, z and
	// 2·f·z. They only grow: a member leaving keeps them valid.
	lim []cdsItem
	// zcap and fcap bound Z_p+Z_q and F_p+F_q for any two groups.
	zcap, fcap float64
	// cont is pick's contender scratch: up to K² stale cell indices.
	cont       []int32
	champ      Move
	champFound bool
	scans      int64
	recomputed int64
}

const (
	// boundSlack times a row's magnitude T = f̂·zcap + ẑ·fcap + t̂ is
	// the rounding slack every raised bound gets: 2⁻⁴⁷ is 64 units of
	// roundoff, where the proof in DESIGN.md §2 needs 23.
	boundSlack = 0x1p-47
	// boundRel times |bound| covers rounding the raised bound's own
	// sum: 2⁻⁵⁰ is 8 units of roundoff, where the proof needs 2.
	boundRel = 0x1p-50
	// capPad lifts a float sum of N positive terms above every float
	// sum of any subset of them, for N < 2³¹ (positions are int32).
	capPad = 1 + 0x1p-20
)

func newIncrementalSelector(cur *Allocation, agg []GroupAgg) *incrementalSelector {
	k := len(agg)
	s := &incrementalSelector{
		cur: cur, agg: agg, k: k,
		fzt:  make([]cdsItem, cur.db.Len()),
		dc:   make([]float64, k*k),
		pos:  make([]int32, k*k),
		prev: append([]GroupAgg(nil), agg...),
		lim:  make([]cdsItem, k),
		cont: make([]int32, k*k),
	}
	for i, it := range cur.db.items {
		x := cdsItem{f: it.Freq, z: it.Size, tfz: 2 * it.Freq * it.Size}
		s.fzt[i] = x
		s.raiseLim(cur.channel[i], x)
	}
	s.zcap, s.fcap = cur.db.totalSize*capPad, cur.db.totalFreq*capPad
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

// raiseLim folds item x into group g's f/z/2fz maxima.
func (s *incrementalSelector) raiseLim(g int, x cdsItem) {
	l := &s.lim[g]
	l.f, l.z, l.tfz = max(l.f, x.f), max(l.z, x.z), max(l.tfz, x.tfz)
}

// rise is how far a bound of a row with maxima l may climb when
// Z_p−Z_q rises by dz and F_p−F_q by df, rounding slack included.
func (s *incrementalSelector) rise(l cdsItem, dz, df float64) float64 {
	return l.f*dz + l.z*df + boundSlack*(l.f*s.zcap+l.z*s.fcap+l.tfz)
}

// refresh recomputes cell c of row p exactly: every member of D_p
// toward the cell's destination, visited in ascending position, where
// only a strictly larger Δc displaces the running maximum. The maximum
// runs over orderKeys, not floats: the compiler turns an integer
// running max into conditional moves, while a float one stays a branch
// that mispredicts whenever database position correlates with Δc. With
// member arrays the scan runs in the AVX2 kernel instead, which
// returns the same maximum and first member (DESIGN.md §2).
func (s *incrementalSelector) refresh(c, p int) {
	ap, aq := s.agg[p], s.agg[c-p*s.k]
	// MoveReduction with the aggregate differences and the 2·f·z term
	// hoisted; same expression, same bits.
	dz, df := ap.Z-aq.Z, ap.F-aq.F
	best, bestPos := orderKey(math.Inf(-1)), int32(-1)
	members, fzt := s.cur.ChannelPositions(p), s.fzt
	s.recomputed += int64(len(members))
	if s.arr != nil {
		if key, at := s.arr.scan(p, len(members), dz, df); at >= 0 {
			best, bestPos = key, int32(members[at])
		}
	} else {
		for _, pos := range members {
			it := fzt[pos]
			if key := orderKey(it.f*dz + it.z*df - it.tfz); key > best {
				best, bestPos = key, int32(pos)
			}
		}
	}
	s.dc[c], s.pos[c] = keyFloat(best), bestPos
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
// and compared in turn.
func (s *incrementalSelector) pick() {
	k := s.k
	best, bestRow, bestDC := -1, -1, 0.0
	n := 0
	for p := 0; p < k; p++ {
		for c := p * k; c < (p+1)*k; c++ {
			// Few cells reach the running best, so test that first: a
			// branch on fresh versus stale alone would mispredict on the
			// table's mix of the two.
			dc := s.dc[c]
			if dc < bestDC {
				continue
			}
			if s.pos[c] < 0 {
				s.cont[n] = int32(c)
				n++
			} else if s.precedes(c, p, dc, best, bestRow, bestDC) {
				best, bestRow, bestDC = c, p, dc
			}
		}
	}
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
func (s *incrementalSelector) applied(m Move) {
	// refine reconciled agg and the member lists before notifying us.
	k, from, to := s.k, m.From, m.To
	pf, pt := s.prev[from], s.prev[to]
	nf, nt := s.agg[from], s.agg[to]
	s.prev[from], s.prev[to] = nf, nt
	x := s.fzt[m.Pos]
	s.raiseLim(to, x)
	if s.arr != nil {
		s.arr.moved(s.cur, s.fzt, m.Pos, from, to)
	}
	negInf := math.Inf(-1)

	// Row from and column to fall: keep their values as bounds. An
	// emptied group's row is exact at −Inf.
	dcF, posF := s.dc[from*k:(from+1)*k], s.pos[from*k:(from+1)*k]
	for q := range posF {
		if nf.N == 0 {
			dcF[q] = negInf
		}
		posF[q] = -1
	}
	for c := to; c < len(s.pos); c += k {
		s.pos[c] = -1
	}

	// Column from rises by how far Z_from and F_from fell.
	dzF, dfF := pf.Z-nf.Z, pf.F-nf.F
	for p, g := range s.agg {
		if p == from || p == to || g.N == 0 {
			continue
		}
		c := p*k + from
		b := s.dc[c]
		s.dc[c], s.pos[c] = b+(s.rise(s.lim[p], dzF, dfF)+math.Abs(b)*boundRel), -1
	}

	// Row to rises by how far Z_to and F_to rose, cell (to, from) by
	// column from's rise as well, and x joins the row's members. If to
	// was empty its row is all −Inf and x alone bounds it.
	lt := s.lim[to]
	riseT := s.rise(lt, nt.Z-pt.Z, nt.F-pt.F)
	riseTF := riseT + (lt.f*dzF + lt.z*dfF)
	dcT, posT := s.dc[to*k:(to+1)*k], s.pos[to*k:(to+1)*k]
	for q, g := range s.agg[:len(dcT)] {
		b, r := dcT[q], riseT
		if q == from {
			r = riseTF
		}
		if pt.N > 0 {
			b += r + math.Abs(b)*boundRel
		}
		// MoveReduction for x toward q, hoisted as in refresh.
		if dx := x.f*(nt.Z-g.Z) + x.z*(nt.F-g.F) - x.tfz; dx > b {
			b = dx
		}
		dcT[q], posT[q] = b, -1
	}
	dcT[to] = negInf
	s.pick()
}

func (s *incrementalSelector) stats() selStats {
	return selStats{scans: s.scans, recomputed: s.recomputed}
}
