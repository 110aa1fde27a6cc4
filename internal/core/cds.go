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
// members to reselect in O((|D_p|+|D_q|)·K + 2N + K²) from a K×K table
// of per-(source, destination) champions (see DESIGN.md §2). Both
// strategies select bit-for-bit identical moves.
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

	// Tracer receives one cds_refine span per call with a cds_move
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
	// of groups (p, q), the best item of D_p to move to D_q, and after
	// each move recomputes only the table rows and columns of the two
	// touched groups.
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
	// recomputed counts items rescanned over all K destinations.
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
	switch c.Strategy {
	case StrategyNaive:
		sel = &naiveSelector{cur: cur, agg: agg}
	case StrategyIncremental:
		sel = newIncrementalSelector(cur, agg)
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
		span = tr.Start(spanCDSRefine, stratTag,
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

// reconcileGroup rebuilds agg[g] from the allocation. Accumulating
// over the group's position list in ascending order is the same
// per-group order Aggregates uses, so the result is bit-for-bit what
// a full recomputation would produce.
//
//diverselint:hotpath per-applied-move aggregate reconciliation
func reconcileGroup(cur *Allocation, agg []GroupAgg, g int) {
	db := cur.Database()
	agg[g] = GroupAgg{}
	for _, pos := range cur.ChannelPositions(g) {
		it := db.Item(pos)
		agg[g].F += it.Freq
		agg[g].Z += it.Size
		agg[g].N++
	}
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

// incrementalSelector is the pair-champion table. Cell (p, q) holds
// the best move from group D_p to group D_q: its Δc and the database
// position of the item, where best means the largest Δc and, among
// equal Δc, the smallest position — the item the naive scan meets
// first. Diagonal cells and cells of empty groups hold (−Inf, −1).
//
// A move from → to changes only agg[from], agg[to] and the membership
// of those two groups, so applied recomputes exactly the cells that
// read them (see DESIGN.md §2):
//   - rows from and to: their members over all K destinations;
//   - columns from and to: every other item, two Eq. 4 evaluations.
//
// Every other cell reads only unchanged aggregates and members and
// keeps its exact bits. The next move is then one scan of the K²
// cells under the naive scan's order (Δc descending, then source,
// position and destination ascending).
type incrementalSelector struct {
	cur *Allocation
	agg []GroupAgg
	k   int
	fzt []cdsItem // per database position
	// dc and pos are the K×K cells, row-major by source group.
	dc  []float64
	pos []int32
	// dzs and dfs are row-rescan scratch: the aggregate differences
	// Z_p−Z_q and F_p−F_q toward every destination q.
	dzs, dfs   []float64
	champ      Move
	champFound bool
	scans      int64
	recomputed int64
}

func newIncrementalSelector(cur *Allocation, agg []GroupAgg) *incrementalSelector {
	k := len(agg)
	s := &incrementalSelector{
		cur: cur, agg: agg, k: k,
		fzt: make([]cdsItem, cur.db.Len()),
		dc:  make([]float64, k*k),
		pos: make([]int32, k*k),
		dzs: make([]float64, k),
		dfs: make([]float64, k),
	}
	for i, it := range cur.db.items {
		s.fzt[i] = cdsItem{f: it.Freq, z: it.Size, tfz: 2 * it.Freq * it.Size}
	}
	for p := 0; p < k; p++ {
		s.rescanRow(p)
	}
	s.pick()
	return s
}

// rescanRow recomputes row p: every member of D_p against every
// destination. Members are visited in ascending position and only a
// strictly larger Δc displaces a cell, so each cell keeps the smallest
// position among equal maxima. Slot p of the scratch is poked to
// (−Inf, 0) so the diagonal evaluates to −Inf (item frequencies are
// validated strictly positive and finite) and never displaces its
// (−Inf, −1) start.
func (s *incrementalSelector) rescanRow(p int) {
	dcs := s.dc[p*s.k : (p+1)*s.k]
	ps := s.pos[p*s.k : (p+1)*s.k][:len(dcs)]
	dzs, dfs := s.dzs[:len(dcs)], s.dfs[:len(dcs)]
	ap := s.agg[p]
	negInf := math.Inf(-1)
	for q, g := range s.agg[:len(dcs)] {
		dzs[q], dfs[q] = ap.Z-g.Z, ap.F-g.F
		dcs[q], ps[q] = negInf, -1
	}
	dzs[p], dfs[p] = negInf, 0
	members := s.cur.ChannelPositions(p)
	s.recomputed += int64(len(members))
	for _, pos := range members {
		it := s.fzt[pos]
		for q := range dcs {
			// MoveReduction with the aggregate differences and the
			// 2·f·z term precomputed; same expression, same bits.
			if dc := it.f*dzs[q] + it.z*dfs[q] - it.tfz; dc > dcs[q] {
				dcs[q], ps[q] = dc, int32(pos)
			}
		}
	}
}

// rescanColumns recomputes cells (p, from) and (p, to) for every group
// p outside {from, to}: two Eq. 4 evaluations per member. The running
// maxima compare orderKeys, not floats: the compiler turns an integer
// running max into conditional moves, while a float one stays a branch
// that mispredicts whenever database position correlates with Δc (at
// K=64 over 40% of members raise their group's maximum).
func (s *incrementalSelector) rescanColumns(from, to int) {
	aF, aT := s.agg[from], s.agg[to]
	negInf := math.Inf(-1)
	fzt := s.fzt
	for p, ap := range s.agg {
		if p == from || p == to {
			continue
		}
		zf, ff := ap.Z-aF.Z, ap.F-aF.F
		zt, ft := ap.Z-aT.Z, ap.F-aT.F
		bF, bT := orderKey(negInf), orderKey(negInf)
		pF, pT := int32(-1), int32(-1)
		for _, pos := range s.cur.ChannelPositions(p) {
			it := fzt[pos]
			kF := orderKey(it.f*zf + it.z*ff - it.tfz)
			kT := orderKey(it.f*zt + it.z*ft - it.tfz)
			if kF > bF {
				bF, pF = kF, int32(pos)
			}
			if kT > bT {
				bT, pT = kT, int32(pos)
			}
		}
		row := p * s.k
		s.dc[row+from], s.pos[row+from] = keyFloat(bF), pF
		s.dc[row+to], s.pos[row+to] = keyFloat(bT), pT
	}
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

// pick scans the K² cells for the move next hands out. Rows are
// visited by ascending source and cells by ascending destination; a
// cell displaces the champion on a strictly larger Δc, or on an equal
// Δc in the champion's own row with a smaller position. That is the
// naive scan's order (Δc descending, then source, position and
// destination ascending), and only a strictly positive Δc is found.
func (s *incrementalSelector) pick() {
	best, bestRow, bestDC := -1, -1, 0.0
	for p := 0; p < s.k; p++ {
		for c := p * s.k; c < (p+1)*s.k; c++ {
			dc := s.dc[c]
			//diverselint:ignore floateq deliberate exact tie-break: equal Δc within a source row must resolve by position exactly like the naive scan order
			if dc > bestDC || dc == bestDC && p == bestRow && s.pos[c] < s.pos[best] {
				best, bestRow, bestDC = c, p, dc
			}
		}
	}
	if best < 0 {
		s.champ, s.champFound = Move{}, false
		return
	}
	s.champ = Move{Pos: int(s.pos[best]), From: bestRow, To: best - bestRow*s.k, Reduction: bestDC}
	s.champFound = true
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
	s.rescanRow(m.From)
	s.rescanRow(m.To)
	s.rescanColumns(m.From, m.To)
	s.pick()
}

func (s *incrementalSelector) stats() selStats {
	return selStats{scans: s.scans, recomputed: s.recomputed}
}
