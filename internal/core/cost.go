package core

// This file implements the analytical model of Section 2 of the paper:
// the grouping cost (Eq. 3) and the average waiting time (Eq. 2).

// Cost evaluates the grouping cost of Eq. (3):
//
//	cost = Σ_i F_i · Z_i
//
// the allocation-dependent component of the waiting time. Lower is
// better; this is the quantity every allocator in this module
// minimizes.
func Cost(a *Allocation) float64 {
	var total float64
	for c := 0; c < a.k; c++ {
		total += a.groupAgg(c).Cost()
	}
	return total
}

// GroupCosts returns each channel's F_i·Z_i contribution.
func GroupCosts(a *Allocation) []float64 {
	agg := a.Aggregates()
	out := make([]float64, len(agg))
	for i, g := range agg {
		out[i] = g.Cost()
	}
	return out
}

// WaitingTime evaluates Eq. (2): the expected waiting time of the
// broadcast program under channel bandwidth b (size units per second),
//
//	W_b = cost/(2b) + downloadMass/b.
//
// The first term is the frequency-weighted mean probe time (half the
// broadcast cycle of the item's channel); the second the mean download
// time. b must be positive.
func WaitingTime(a *Allocation, b float64) float64 {
	return Cost(a)/(2*b) + a.db.DownloadMass()/b
}

// ChannelWaitingTime evaluates Eq. (1) averaged within channel c: the
// mean waiting time W^(i) experienced by requests for items on that
// channel. An empty channel has waiting time 0 (it serves no
// requests).
func ChannelWaitingTime(a *Allocation, c int, b float64) float64 {
	agg := a.groupAgg(c)
	if agg.N == 0 || agg.F == 0 {
		return 0
	}
	var download float64 // Σ f_j z_j over the channel
	for _, pos := range a.ChannelPositions(c) {
		it := a.db.Item(pos)
		download += it.Freq * it.Size
	}
	return agg.Z/(2*b) + download/(b*agg.F)
}

// ItemWaitingTime evaluates Eq. (1) for the single item at database
// position pos: half its channel's cycle plus its own download time.
func ItemWaitingTime(a *Allocation, pos int, b float64) float64 {
	agg := a.groupAgg(a.channel[pos])
	return agg.Z/(2*b) + a.db.Item(pos).Size/b
}

// CycleLength returns the broadcast-cycle duration of channel c in
// seconds under bandwidth b: Z_i / b.
func CycleLength(a *Allocation, c int, b float64) float64 {
	return a.groupAgg(c).Z / b
}

// MoveReduction evaluates Eq. (4): the cost reduction Δc obtained by
// moving the item (f, z) from a group with aggregates from to a group
// with aggregates to, without performing the move:
//
//	Δc = f·(Z_p − Z_q) + z·(F_p − F_q) − 2·f·z
//
// A positive value means the move lowers the total cost.
func MoveReduction(it Item, from, to GroupAgg) float64 {
	return it.Freq*(from.Z-to.Z) + it.Size*(from.F-to.F) - 2*it.Freq*it.Size
}
