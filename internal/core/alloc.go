package core

import (
	"errors"
	"fmt"
)

// Allocation assigns every item of a database to one of K broadcast
// channels. It is the output of every allocator in this module and the
// input to CDS, to the broadcast-program builder, and to the analytic
// and simulated evaluations.
type Allocation struct {
	db      *Database
	k       int
	channel []int // channel[pos] = channel index in [0,K)
	// members[c] lists the database positions on channel c, so
	// per-channel scans (CDS move selection, channel waiting time)
	// avoid the O(N) membership filter per channel. The lists are in
	// ascending order except inside a running CDS refinement, whose
	// moves leave them in any order and which sorts them again before
	// it returns (sortMembers).
	members [][]int
	// slot[pos] is pos's index in members[channel[pos]]: move finds
	// the item it takes out of a list without a search.
	slot []int32
	// sums holds every channel's F and Z as exact fixed-point sums in
	// db's frame (exactsum.go): channel c's F in sums[2cL : 2cL+L] and
	// its Z in the next L limbs. move keeps them in step.
	sums []uint64
}

// Errors returned by allocation constructors and validators.
var (
	ErrBadChannelCount = errors.New("core: channel count must satisfy 1 <= K <= N")
	ErrChannelRange    = errors.New("core: item assigned to channel outside [0,K)")
	ErrWrongLength     = errors.New("core: assignment length differs from database size")
)

// NewAllocation builds an allocation over db with k channels from an
// explicit assignment: channel[i] is the channel of the item at
// database position i. The slice is copied. Empty channels are legal
// (they contribute zero cost), matching the paper's CDS, which may
// drain a group entirely.
func NewAllocation(db *Database, k int, channel []int) (*Allocation, error) {
	if k < 1 || k > db.Len() {
		return nil, fmt.Errorf("%w: K=%d, N=%d", ErrBadChannelCount, k, db.Len())
	}
	if len(channel) != db.Len() {
		return nil, fmt.Errorf("%w: len=%d, N=%d", ErrWrongLength, len(channel), db.Len())
	}
	a := &Allocation{db: db, k: k, channel: make([]int, len(channel))}
	copy(a.channel, channel)
	for pos, c := range a.channel {
		if c < 0 || c >= k {
			return nil, fmt.Errorf("%w: item at %d on channel %d, K=%d", ErrChannelRange, pos, c, k)
		}
	}
	a.buildMembers()
	a.buildSums()
	return a, nil
}

// buildMembers (re)derives the per-channel position lists and the
// slot index from the channel vector.
//
//diverselint:coldpath O(N+K) reconstruction at allocation build time; per-move updates go through move
func (a *Allocation) buildMembers() {
	counts := make([]int, a.k)
	for _, c := range a.channel {
		counts[c]++
	}
	a.members = make([][]int, a.k)
	for c, n := range counts {
		a.members[c] = make([]int, 0, n)
	}
	a.slot = make([]int32, len(a.channel))
	a.sortMembers()
}

// sortMembers refills every position list from the channel vector in
// ascending position order, and the slot index with it, in O(N+K).
// Each list regains its length, so the refill stays inside the lists'
// capacity and allocates nothing.
func (a *Allocation) sortMembers() {
	for c := range a.members {
		a.members[c] = a.members[c][:0]
	}
	for pos, c := range a.channel {
		m := a.members[c]
		a.slot[pos] = int32(len(m))
		a.members[c] = m[:len(m)+1]
		a.members[c][len(m)] = pos
	}
}

// Database returns the database this allocation partitions.
func (a *Allocation) Database() *Database { return a.db }

// K reports the number of channels.
func (a *Allocation) K() int { return a.k }

// ChannelOf returns the channel of the item at database position pos.
func (a *Allocation) ChannelOf(pos int) int { return a.channel[pos] }

// Assignment returns a copy of the raw channel vector.
func (a *Allocation) Assignment() []int {
	out := make([]int, len(a.channel))
	copy(out, a.channel)
	return out
}

// Groups returns, per channel, the database positions assigned to it,
// in ascending position order. The returned lists are copies; see
// ChannelPositions for an allocation-free view.
//
//diverselint:coldpath copying accessor by contract; hot loops use ChannelPositions
func (a *Allocation) Groups() [][]int {
	groups := make([][]int, a.k)
	for c, m := range a.members {
		groups[c] = append([]int(nil), m...)
	}
	return groups
}

// ChannelPositions returns the database positions currently assigned
// to channel c, in ascending order, without copying. The returned
// slice is a read-only view into the allocation's internal index: it
// must not be modified and is only valid until the allocation is next
// mutated. Hot per-channel loops (CDS scans, adaptive replanning) use
// it to avoid both the O(N) membership filter and a per-call copy.
// Inside a running CDS refinement, and only there, the view lists the
// positions in the order its moves left them.
func (a *Allocation) ChannelPositions(c int) []int { return a.members[c] }

// GroupAgg is the per-channel aggregate state used throughout the
// paper: F is the aggregate frequency Σf, Z the aggregate size Σz, and
// N the item count of the channel.
type GroupAgg struct {
	F float64
	Z float64
	N int
}

// Cost is the channel's contribution F·Z to the grouping cost.
func (g GroupAgg) Cost() float64 { return g.F * g.Z }

// Aggregates computes F_i, Z_i and N_i for every channel. F_i and Z_i
// are the exact sums of the channel's frequencies and sizes, rounded
// once to nearest, so they do not depend on the order the items were
// added in or on the moves that led to the allocation.
func (a *Allocation) Aggregates() []GroupAgg {
	agg := make([]GroupAgg, a.k)
	for c := range agg {
		agg[c] = a.groupAgg(c)
	}
	return agg
}

// groupAgg reads channel c's aggregates off its exact sums in O(1).
func (a *Allocation) groupAgg(c int) GroupAgg {
	fr := a.db.frame
	f, z := a.channelSums(c)
	return GroupAgg{F: fr.round(f), Z: fr.round(z), N: len(a.members[c])}
}

// Clone returns a deep copy that can be mutated independently (the
// database is shared; it is immutable).
//
//diverselint:coldpath deep copy for snapshots and refinement forks, O(N+K) by design
func (a *Allocation) Clone() *Allocation {
	channel := make([]int, len(a.channel))
	copy(channel, a.channel)
	members := make([][]int, len(a.members))
	for c, m := range a.members {
		members[c] = append(make([]int, 0, len(m)), m...)
	}
	slot := append([]int32(nil), a.slot...)
	sums := append([]uint64(nil), a.sums...)
	return &Allocation{db: a.db, k: a.k, channel: channel, members: members, slot: slot, sums: sums}
}

// move reassigns the item at database position pos to channel dest in
// O(1): the source list loses pos by swap-remove (its last member
// moves into the freed slot), the destination list appends it, and the
// two channels' exact sums follow. It returns the slot pos left, which
// the source's last member now fills unless pos was that member. The
// lists are then out of ascending order, so only CDS's refinement,
// which sorts them again before it returns, and tests call it: outside
// a refinement the Allocation stays immutable to callers.
func (a *Allocation) move(pos, dest int) (slot int) {
	src := a.channel[pos]
	if src == dest {
		return int(a.slot[pos])
	}
	a.channel[pos] = dest
	m, i := a.members[src], int(a.slot[pos])
	last := m[len(m)-1]
	m[i], a.slot[last] = last, int32(i)
	a.members[src] = m[:len(m)-1]
	a.slot[pos] = int32(len(a.members[dest]))
	a.members[dest] = append(a.members[dest], pos)
	a.moveSums(pos, src, dest)
	return i
}

// Validate re-checks the structural invariants. It is cheap and used by
// property tests after every transformation.
func (a *Allocation) Validate() error {
	if a.k < 1 || a.k > a.db.Len() {
		return fmt.Errorf("%w: K=%d, N=%d", ErrBadChannelCount, a.k, a.db.Len())
	}
	if len(a.channel) != a.db.Len() {
		return fmt.Errorf("%w: len=%d, N=%d", ErrWrongLength, len(a.channel), a.db.Len())
	}
	for pos, c := range a.channel {
		if c < 0 || c >= a.k {
			return fmt.Errorf("%w: item at %d on channel %d, K=%d", ErrChannelRange, pos, c, a.k)
		}
	}
	// The position index must mirror the channel vector: every list
	// sorted, every entry on the right channel at the slot the slot
	// index names, N entries in total.
	total := 0
	for c, m := range a.members {
		for i, pos := range m {
			if i > 0 && m[i-1] >= pos {
				return fmt.Errorf("core: channel %d position list out of order at %d", c, i)
			}
			if pos < 0 || pos >= len(a.channel) {
				return fmt.Errorf("core: channel %d position list holds out-of-range position %d", c, pos)
			}
			if a.channel[pos] != c {
				return fmt.Errorf("core: position %d indexed on channel %d but assigned to %d", pos, c, a.channel[pos])
			}
			if int(a.slot[pos]) != i {
				return fmt.Errorf("core: position %d at slot %d of channel %d but indexed at slot %d", pos, i, c, a.slot[pos])
			}
		}
		total += len(m)
	}
	if total != len(a.channel) {
		return fmt.Errorf("core: position index covers %d of %d items", total, len(a.channel))
	}
	return nil
}

// Equal reports whether two allocations assign every item identically
// and share the same database and K.
func (a *Allocation) Equal(b *Allocation) bool {
	if a.db != b.db || a.k != b.k || len(a.channel) != len(b.channel) {
		return false
	}
	for i := range a.channel {
		if a.channel[i] != b.channel[i] {
			return false
		}
	}
	return true
}
