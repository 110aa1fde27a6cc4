package core

import (
	"math"
	"slices"

	"diversecast/internal/pool"
)

// batchedSelector is the batched mode of StrategyIncremental: instead of
// repairing the candidate tables after every single move, it selects
// up to BatchSize non-conflicting moves per sweep — one per source
// group, pairwise disjoint {source, destination} group pairs — applies
// them back to back, and repairs the tables once.
//
// Why that is sound (the commutation argument, verified move-by-move
// by the batch-replay tests): Eq. 4's Δc for a move d_x: D_p → D_q
// depends only on the item constants and the aggregates (F_p, Z_p,
// F_q, Z_q). Earlier moves in the same batch touch only their own two
// groups, which are disjoint from {p, q}, so when the move is applied
// its Δc — and hence the exact cost drop — is bit-for-bit the value
// cached when the batch was assembled. Disjoint moves commute: any
// application order yields the same aggregates and the same total
// cost, because each group's aggregate is changed by at most one move
// in the batch.
//
// What is relaxed relative to strict steepest descent: the first move
// of every batch is the true global champion (the per-group champions
// are a partition of all candidate moves), but subsequent members are
// only their own group's champions. Every batched move still has
// Δc > eps at its application state, so termination and the
// monotone-descent guarantee are untouched; only the descent path may
// differ. The tables themselves stay exact: the post-batch repair
// rescans members of touched groups and merges every other item's
// fresh Δc toward the touched destinations into its cached table
// (see repairRange), so a batched refinement ends in a state the
// strict engines recognize as locally optimal.
type batchedSelector struct {
	incrementalSelector
	batchCap int
	// eps is refine's termination threshold: only moves with Δc > eps
	// are enqueued, so a mid-batch pop can never terminate the
	// refinement while other groups still hold eligible moves.
	eps float64

	// gchamp[g] is group g's champion move (its members' best cached
	// move, canonical tie-break), gfound[g] whether one with Δc > 0
	// exists. Batches are assembled from these.
	gchamp []Move
	gfound []bool
	// pending is the in-flight batch in application order; pendIdx
	// points at the next move to hand to refine.
	pending []Move
	pendIdx int

	// touched marks the groups whose aggregates the in-flight batch
	// changed (the disjoint pairs), consumed by repair.
	touched     []bool
	touchedList []int
	// dirty marks untouched groups that lost a member's cached table
	// during repair and need their champion rebuilt.
	dirty []bool
	// blocked is batch-assembly scratch for the greedy disjoint filter.
	blocked []bool
	// front is repair scratch: the Pareto-minimal touched groups under
	// (Z, F), the only ones repairRange's fast path must test exactly.
	front []int
	// Densely packed (Z, F) shadows of touchedList and front, refilled
	// per repair so the per-item fold and prune stream contiguously
	// instead of gathering through group indices. The packed values are
	// plain copies of the aggregate shadows — same bits.
	tlZ, tlF []float64
	frZ, frF []float64

	batchSeq     int
	batchedMoves int64

	// Per-shard dirty marks for the sharded repair sweep (its recompute
	// counts go to the embedded recomp slots). The rebuild fallback
	// uses scanTop4Direct, which needs no scratch.
	sdirty [][]bool
}

//diverselint:coldpath selector construction once per refinement run; the per-move work reuses these tables
func newBatchedSelector(cur *Allocation, agg []GroupAgg, t *cdsTables, sh sweepSharding, batchCap int, eps float64) *batchedSelector {
	s := &batchedSelector{batchCap: batchCap, eps: eps}
	s.cdsTables = t
	s.initTables(cur, agg, sh)
	k := len(agg)
	s.gchamp = make([]Move, k)
	s.gfound = make([]bool, k)
	s.touched = make([]bool, k)
	s.touchedList = make([]int, 0, 2*batchCap)
	s.dirty = make([]bool, k)
	s.blocked = make([]bool, k)
	s.front = make([]int, 0, k)
	s.tlZ = make([]float64, 0, 2*batchCap)
	s.tlF = make([]float64, 0, 2*batchCap)
	s.frZ = make([]float64, 0, 2*batchCap)
	s.frF = make([]float64, 0, 2*batchCap)
	s.pending = make([]Move, 0, 3*k)
	for g := range agg {
		s.rebuildGroupChamp(g)
	}
	if s.shardSweep() {
		s.sdirty = make([][]bool, sh.width)
		for w := range s.sdirty {
			s.sdirty[w] = make([]bool, k)
		}
	}
	return s
}

// rebuildGroupChamp refolds group g's champion from its members'
// cached best entries. Positions ascend and only a strictly larger Δc
// wins, so ties keep the earliest position — the canonical order.
func (s *batchedSelector) rebuildGroupChamp(g int) {
	best := Move{}
	found := false
	for _, pos := range s.cur.ChannelPositions(g) {
		h := &s.hot[pos]
		if h.e0dc > best.Reduction {
			best = Move{Pos: pos, From: g, To: int(h.d0), Reduction: h.e0dc}
			found = true
		}
	}
	s.gchamp[g], s.gfound[g] = best, found
}

//diverselint:hotpath per-batch assembly and handoff
func (s *batchedSelector) next() (Move, bool) {
	if s.pendIdx < len(s.pending) {
		m := s.pending[s.pendIdx]
		s.pendIdx++
		return m, true
	}
	// Assemble a fresh batch from the per-group champions. One scan
	// per batch is the mode's whole point; the counter matches. Each
	// group contributes its champion item's full cached entry list —
	// up to three (destination, Δc) candidates, every value the exact
	// MoveReduction bits under the current aggregates — so that when
	// champions pile onto the same few attractive destinations (the
	// shape steepest descent produces), the greedy disjoint filter can
	// fall back to a blocked champion's runner-up destination instead
	// of shrinking the batch to the handful of contested groups.
	s.scans++
	cands := s.pending[:0]
	for g := range s.gchamp {
		if !s.gfound[g] {
			continue
		}
		pos := s.gchamp[g].Pos
		h := &s.hot[pos]
		if h.e0dc > s.eps {
			cands = append(cands, Move{Pos: pos, From: g, To: int(h.d0), Reduction: h.e0dc})
		}
		if h.d1 >= 0 && s.e1dc[pos] > s.eps {
			cands = append(cands, Move{Pos: pos, From: g, To: int(h.d1), Reduction: s.e1dc[pos]})
		}
		if h.d2 >= 0 && s.e2dc[pos] > s.eps {
			cands = append(cands, Move{Pos: pos, From: g, To: int(h.d2), Reduction: s.e2dc[pos]})
		}
	}
	if len(cands) == 0 {
		return Move{}, false
	}
	// Canonical batch order: Δc descending, source channel ascending,
	// destination ascending — a total order, since a group's three
	// candidates have distinct destinations. The head of the sorted
	// list is the true global champion: per-group champions partition
	// the candidate moves, and a champion item's d0 entry ≻ its
	// runner-ups by the table invariant.
	// slices.SortFunc instead of sort.Slice: the generic sort takes the
	// []Move directly, so nothing is boxed into an interface on this
	// path.
	//diverselint:ignore hotalloc comparator closure captures nothing and never escapes the generic sort; the AllocsPerRun gate holds the batch step to zero
	slices.SortFunc(cands, func(a, b Move) int {
		//diverselint:ignore floateq deliberate exact tie-break: equal Δc must resolve by source channel then destination exactly like the naive scan order
		if a.Reduction != b.Reduction {
			if a.Reduction > b.Reduction {
				return -1
			}
			return 1
		}
		if a.From != b.From {
			return a.From - b.From
		}
		return a.To - b.To
	})
	// Greedy disjoint filter in canonical order: a move joins the
	// batch only if neither of its groups is already touched by an
	// earlier (better) member. In-place compaction is safe — the
	// write index never passes the read index.
	for i := range s.blocked {
		s.blocked[i] = false
	}
	out := 0
	for _, m := range cands {
		if s.blocked[m.From] || s.blocked[m.To] {
			continue
		}
		s.blocked[m.From], s.blocked[m.To] = true, true
		cands[out] = m
		out++
		if out == s.batchCap {
			break
		}
	}
	cands = cands[:out]
	s.batchSeq++
	for i := range cands {
		cands[i].Batch = s.batchSeq
	}
	s.pending = cands
	s.pendIdx = 1
	return cands[0], true
}

//diverselint:hotpath per-move batch bookkeeping and end-of-batch repair
func (s *batchedSelector) applied(m Move) {
	from, to := m.From, m.To
	// refine reconciled agg before notifying us; refresh the shadows.
	s.aggZ[from], s.aggF[from] = s.agg[from].Z, s.agg[from].F
	s.aggZ[to], s.aggF[to] = s.agg[to].Z, s.agg[to].F
	s.chq[m.Pos] = int32(to)
	s.batchedMoves++
	if !s.touched[from] {
		s.touched[from] = true
		//diverselint:ignore hotalloc touchedList is constructed with capacity 2*batchCap and reset per batch; at most two groups join per move, so the append never grows it
		s.touchedList = append(s.touchedList, from)
	}
	if !s.touched[to] {
		s.touched[to] = true
		//diverselint:ignore hotalloc touchedList is constructed with capacity 2*batchCap and reset per batch; at most two groups join per move, so the append never grows it
		s.touchedList = append(s.touchedList, to)
	}
	if s.pendIdx >= len(s.pending) {
		// Last member of the batch: repair the tables once for the
		// whole batch. (If refine stops mid-batch — MaxMoves — the
		// selector is simply dropped before this point.)
		s.repair()
	}
}

// repair re-establishes every table invariant after a whole batch:
// members of touched groups rescan over all destinations (their
// source aggregates changed), and every untouched item either proves
// — via a sound pruning bound — that no touched destination can enter
// its cached table, or rebuilds the table exactly.
func (s *batchedSelector) repair() {
	W := s.width
	sharded := s.shardSweep()
	if sharded {
		s.parSweeps++
	}
	// Ascending group order makes repairRange's fresh fold canonical:
	// its strict-comparison cascade keeps the earliest (smallest) group
	// on ties, exactly like a scan over all destinations would.
	slices.Sort(s.touchedList)
	// Touched groups: full member rescans, then refold their
	// champions. fillDeltas fills the selector-wide scratch serially;
	// the sharded scan reads it without writing.
	for _, g := range s.touchedList {
		s.fillDeltas(g)
		members := s.cur.ChannelPositions(g)
		if !sharded || len(members) < s.minGroup {
			for _, pos := range members {
				s.scanTop4Into(pos, s.dzs, s.dfs)
			}
		} else {
			//diverselint:ignore loopalloc,hotalloc one closure header per parallel member sweep is the dispatch cost of sharding; the sweep itself is allocation-free
			pool.RunRanges(W, W, len(members), func(_, lo, hi int) {
				for _, pos := range members[lo:hi] {
					s.scanTop4Into(pos, s.dzs, s.dfs)
				}
			})
		}
		s.recomputed += int64(len(members))
		s.rebuildGroupChamp(g)
	}
	// The fast path's exact prune set: the Pareto-minimal touched
	// groups under (Z, F). A touched group h with Z_h ≤ Z_g and
	// F_h ≤ F_g covers g in float bits — every step of the Δc
	// expression is monotone in −Z_q and −F_q and rounding is monotone,
	// so fl(Δc toward h) ≥ fl(Δc toward g) — which means testing the
	// front members exactly tests every touched destination soundly,
	// and the front is typically a handful of groups even for wide
	// batches. Built by the staircase sweep: Z ascending, keep strictly
	// decreasing F.
	s.front = s.front[:0]
	for _, g := range s.touchedList {
		//diverselint:ignore loopalloc,hotalloc s.front is reset to length 0 above and constructed with capacity K; distinct touched groups never exceed K
		s.front = append(s.front, g)
	}
	// slices.SortFunc instead of sort.Slice: no []int-into-any boxing,
	// and the group-ID tiebreak makes the order total even when two
	// groups share the exact (Z, F) bits.
	//diverselint:ignore hotalloc comparator closure captures the selector's shadow arrays and never escapes the generic sort; the AllocsPerRun gate holds the batch step to zero
	slices.SortFunc(s.front, func(a, b int) int {
		//diverselint:ignore floateq deterministic staircase: equal Z orders by F so the kept point dominates the dropped one
		if s.aggZ[a] != s.aggZ[b] {
			if s.aggZ[a] < s.aggZ[b] {
				return -1
			}
			return 1
		}
		//diverselint:ignore floateq deterministic staircase: equal Z orders by F so the kept point dominates the dropped one
		if s.aggF[a] != s.aggF[b] {
			if s.aggF[a] < s.aggF[b] {
				return -1
			}
			return 1
		}
		return a - b
	})
	nf := 0
	bestF := math.Inf(1)
	for _, g := range s.front {
		if s.aggF[g] < bestF {
			s.front[nf] = g
			nf++
			bestF = s.aggF[g]
		}
	}
	s.front = s.front[:nf]
	// Pack the (Z, F) shadows of both lists densely for the sweep.
	s.tlZ, s.tlF = s.tlZ[:0], s.tlF[:0]
	for _, g := range s.touchedList {
		//diverselint:ignore loopalloc,hotalloc tlZ/tlF are reset above and constructed with capacity 2*batchCap, the touched-list bound
		s.tlZ = append(s.tlZ, s.aggZ[g])
		//diverselint:ignore loopalloc,hotalloc tlZ/tlF are reset above and constructed with capacity 2*batchCap, the touched-list bound
		s.tlF = append(s.tlF, s.aggF[g])
	}
	s.frZ, s.frF = s.frZ[:0], s.frF[:0]
	for _, g := range s.front {
		//diverselint:ignore loopalloc,hotalloc frZ/frF are reset above and sized like tlZ/tlF; the front is a subset of the touched list
		s.frZ = append(s.frZ, s.aggZ[g])
		//diverselint:ignore loopalloc,hotalloc frZ/frF are reset above and sized like tlZ/tlF; the front is a subset of the touched list
		s.frF = append(s.frF, s.aggF[g])
	}
	// Untouched items: skip-test or exact rebuild.
	n := len(s.chq)
	if !sharded {
		s.recomputed += s.repairRange(0, n, s.dirty)
	} else {
		//diverselint:ignore hotalloc one closure header per sharded repair sweep is the dispatch cost of parallelism; repairRange itself is allocation-free
		pool.RunRanges(W, W, n, func(shard, lo, hi int) {
			s.recomp[shard] = s.repairRange(lo, hi, s.sdirty[shard])
		})
		for w := 0; w < W; w++ {
			s.recomputed += s.recomp[w]
			sd := s.sdirty[w]
			for g, d := range sd {
				if d {
					s.dirty[g] = true
					sd[g] = false
				}
			}
		}
	}
	// Refold champions of untouched groups that lost a cached table.
	for g, d := range s.dirty {
		if d {
			s.rebuildGroupChamp(g)
			s.dirty[g] = false
		}
	}
	for _, g := range s.touchedList {
		s.touched[g] = false
	}
	s.touchedList = s.touchedList[:0]
}

// repairRange runs the untouched-item sweep over positions [lo, hi),
// marking groups whose members' tables changed in dirty and returning
// the full-rebuild count.
//
// Per item the sweep is the incremental engine's merge generalized
// from a move's 2 touched groups to the batch's T: a cheap O(1)
// pruning bound, then an exact O(T) fold of the fresh Δc toward every
// touched destination, then a merge of those fresh candidates with the
// surviving cached entries. Only when the merge bottoms out below the
// old bound with no entries left does the item pay an O(K) rescan —
// so a repair costs O(N·T) with T ≤ 2·BatchSize, not O(N·K), and the
// per-move amortized cost stays comparable to the strict engines while
// the per-item fixed costs (record loads, loop overhead) are paid once
// per batch instead of once per move.
func (s *batchedSelector) repairRange(lo, hi int, dirty []bool) int64 {
	var recomp int64
	chq := s.chq
	fzts := s.fzt[:len(chq)]
	hots := s.hot[:len(chq)]
	e1dcs, e2dcs := s.e1dc[:len(chq)], s.e2dc[:len(chq)]
	aggZs, aggFs := s.aggZ, s.aggF
	touched := s.touched
	tl := s.touchedList // sorted ascending by repair
	tlZ := s.tlZ
	tlF := s.tlF[:len(tlZ)] // bounds-check elimination in the fold
	frZ := s.frZ
	frF := s.frF[:len(frZ)]
	negInf := math.Inf(-1)
	for pos := lo; pos < hi; pos++ {
		p32 := chq[pos]
		if touched[p32] {
			continue
		}
		it := fzts[pos]
		h := &hots[pos]
		// Fast path: if no cached entry names a touched destination and
		// the item's exact Δc toward every Pareto-minimal touched group
		// falls strictly below the bound, then every touched Δc does
		// (front members cover the dominated groups in float bits — see
		// repair), so the whole table — entries exact, bound dominating
		// every unlisted destination including the touched ones —
		// survives the batch unchanged. A front value exactly equal to
		// the bound conservatively falls through: it could still win
		// the destination tie-break against the bound slot.
		if !(h.d0 >= 0 && touched[h.d0]) &&
			!(h.d1 >= 0 && touched[h.d1]) &&
			!(h.d2 >= 0 && touched[h.d2]) {
			apZ, apF := aggZs[p32], aggFs[p32]
			below := true
			for j := range frZ {
				if it.f*(apZ-frZ[j])+it.z*(apF-frF[j])-it.tfz >= h.bdc {
					below = false
					break
				}
			}
			if below {
				continue
			}
		}
		// Exact fresh top-4 restricted to the touched destinations,
		// streaming the packed (Z, F) pairs: ascending list index — and
		// touchedList is sorted, so ascending group index — with strict
		// comparisons only, the same cascade as scanTop4Into, and the
		// same expression shape as MoveReduction with the 2·f·z term
		// precomputed — same bits. The cascade tracks list indices; they
		// are remapped to group ids after the fold. The 4th slot doubles
		// as the bound on every touched destination the fold does not
		// name.
		apZ, apF := aggZs[p32], aggFs[p32]
		fD := [4]int32{-1, -1, -1, -1}
		fV := [4]float64{negInf, negInf, negInf, negInf}
		for j := range tlZ {
			dc := it.f*(apZ-tlZ[j]) + it.z*(apF-tlF[j]) - it.tfz
			if dc > fV[3] {
				j32 := int32(j)
				if dc > fV[2] {
					if dc > fV[1] {
						if dc > fV[0] {
							fD[3], fV[3] = fD[2], fV[2]
							fD[2], fV[2] = fD[1], fV[1]
							fD[1], fV[1] = fD[0], fV[0]
							fD[0], fV[0] = j32, dc
						} else {
							fD[3], fV[3] = fD[2], fV[2]
							fD[2], fV[2] = fD[1], fV[1]
							fD[1], fV[1] = j32, dc
						}
					} else {
						fD[3], fV[3] = fD[2], fV[2]
						fD[2], fV[2] = j32, dc
					}
				} else {
					fD[3], fV[3] = j32, dc
				}
			}
		}
		for x := range fD {
			if fD[x] >= 0 {
				fD[x] = int32(tl[fD[x]])
			}
		}
		// Survivors: cached entries not naming a touched destination —
		// still the exact ≻-descending top of the unchanged
		// destinations, by the same filtering argument as the
		// incremental merge.
		var sd [3]int32
		var sv [3]float64
		sn, en := 0, 0
		if d := h.d0; d >= 0 {
			en++
			if !touched[d] {
				sd[sn], sv[sn] = d, h.e0dc
				sn++
			}
		}
		if d := h.d1; d >= 0 {
			en++
			if !touched[d] {
				sd[sn], sv[sn] = d, e1dcs[pos]
				sn++
			}
		}
		if d := h.d2; d >= 0 {
			en++
			if !touched[d] {
				sd[sn], sv[sn] = d, e2dcs[pos]
				sn++
			}
		}
		// Merge the two ≻-descending streams, placing exact entries
		// while they strictly beat the old bound (below it an unlisted
		// untouched destination could outrank them). A 4th merged value
		// becomes the new bound: it dominates every remaining survivor
		// and fresh value by merge order, the old bound's territory by
		// transitivity, and the touched destinations beyond the fresh
		// top-4 because the 4th fresh value is ⪯ it. On early stop the
		// old bound keeps covering all of those — survivors can never
		// remain at a stop, since every survivor is ≻ bound.
		bound := cdsCandidate{dest: int(h.bdest), dc: h.bdc}
		ei, fi, out := 0, 0, 0
		ne := [3]cdsCandidate{{-1, negInf}, {-1, negInf}, {-1, negInf}}
		newBound := bound
		for out < 4 {
			var c cdsCandidate
			haveF := fi < 4 && fD[fi] >= 0
			switch {
			case ei < sn && haveF:
				ec := cdsCandidate{dest: int(sd[ei]), dc: sv[ei]}
				fc := cdsCandidate{dest: int(fD[fi]), dc: fV[fi]}
				if better(ec, fc) {
					c = ec
					ei++
				} else {
					c = fc
					fi++
				}
			case ei < sn:
				c = cdsCandidate{dest: int(sd[ei]), dc: sv[ei]}
				ei++
			case haveF:
				c = cdsCandidate{dest: int(fD[fi]), dc: fV[fi]}
				fi++
			default:
				c = cdsCandidate{dest: -1, dc: negInf} // exhausted; fails the bound check
			}
			if !better(c, bound) {
				break
			}
			if out < 3 {
				ne[out] = c
			} else {
				newBound = c
			}
			out++
		}
		if fi == 0 && sn == en {
			// No fresh value entered and no entry was filtered: the
			// merge re-emitted the cached table bit-for-bit, champion
			// included — not dirty. This is the common case when the
			// cheap prune is too loose but the touched groups still lose
			// to the item's cached candidates.
			continue
		}
		if out == 0 {
			// Every listed entry was invalidated and the fresh values
			// fall at or below the bound: the new maximum may hide
			// behind any unlisted destination.
			s.scanTop4Direct(pos, int(p32))
			recomp++
		} else {
			*h = cdsHot{
				bdc: newBound.dc, e0dc: ne[0].dc,
				d0: int32(ne[0].dest), d1: int32(ne[1].dest), d2: int32(ne[2].dest),
				bdest: int32(newBound.dest),
			}
			e1dcs[pos], e2dcs[pos] = ne[1].dc, ne[2].dc
		}
		dirty[p32] = true
	}
	return recomp
}

func (s *batchedSelector) stats() selStats {
	st := s.incrementalSelector.stats()
	st.batchedMoves = s.batchedMoves
	return st
}
