package core

import "math"

// kernelMinMean is the crossover of the AVX2 member scan: the fewest
// members per group, on average (N/K), at which a refinement builds
// member arrays and refresh takes the kernel. Below it the kernel's
// call, scalar tail and array upkeep cost more than its lanes save
// (measured in DESIGN.md §11).
const kernelMinMean = 32

// passMinK is the crossover of the AVX2 pass scan: the fewest groups
// (K) at which pick's pass over the K² cells runs through passScanAVX2.
// Below it the kernel's calls and the Go walk over its hit masks cost
// more than the compares they vectorise (measured in DESIGN.md §11).
const passMinK = 16

// noKernel is a floor no instance reaches: the scalar loop always runs.
const noKernel = math.MaxInt

// kernelFloor is the mean group size from which refinements take the
// AVX2 member scan, and passFloor the group count from which they take
// the AVX2 pass scan. Both are set once at init: their crossovers
// where the CPU has AVX2 and the OS saves its registers, noKernel
// elsewhere and off amd64. Only tests change them, to 0 to force a
// kernel at every size or to noKernel to run the scalar loop on an
// AVX2 host.
var (
	kernelFloor = initFloor(kernelMinMean)
	passFloor   = initFloor(passMinK)
)

func initFloor(crossover int) int {
	if haveAVX2() {
		return crossover
	}
	return noKernel
}

// CDSKernel names the member scan the default CDS engine runs on this
// host once groups average 32 members or more (N/K ≥ 32), and the pass
// scan it runs from K = 16 on: "avx2" for the vector kernels, "go" for
// the scalar loops. Both give the same bits.
func CDSKernel() string {
	if kernelFloor == noKernel {
		return "go"
	}
	return "avx2"
}

// memberArrays holds every group's members' f, z and 2·f·z in member
// order, the order of the group's position list, which a refinement's
// moves leave unsorted, so the kernel streams them with plain vector
// loads instead of gathering cdsItems by position. The three arrays
// are carved from one buffer; group g owns [off[g], off[g]+n) of each,
// n its member count, and may grow to off[g]+room[g]. A group that
// outgrows its room has every window laid out again, each with slack
// spare slots, inside the same buffer: nothing is allocated after
// construction.
type memberArrays struct {
	f, z, t   []float64
	off, room []int
	slack     int
	// relayouts counts the layouts after construction.
	relayouts int64
}

func newMemberArrays(cur *Allocation, fzt []cdsItem) *memberArrays {
	k := cur.k
	slack := max(len(fzt)/k/8, 8)
	c := len(fzt) + k*slack
	buf := make([]float64, 3*c)
	m := &memberArrays{
		f: buf[:c:c], z: buf[c : 2*c : 2*c], t: buf[2*c:],
		off: make([]int, k), room: make([]int, k),
		slack: slack,
	}
	m.layout(cur, fzt)
	return m
}

// layout writes every group's window from its position list.
func (m *memberArrays) layout(cur *Allocation, fzt []cdsItem) {
	at := 0
	for g, members := range cur.members {
		m.off[g], m.room[g] = at, len(members)+m.slack
		f, z, t := m.f[at:at+len(members)], m.z[at:at+len(members)], m.t[at:at+len(members)]
		for i, pos := range members {
			x := fzt[pos]
			f[i], z[i], t[i] = x.f, x.z, x.tfz
		}
		at += m.room[g]
	}
}

// moved mirrors Allocation.move of pos from → to, which has already
// updated the position lists and returned slot, the index pos left in
// from's list: from's last member moves into slot in the three arrays
// as in the list, and pos's values are appended to to's window. O(1),
// unless to outgrows its room.
func (m *memberArrays) moved(cur *Allocation, fzt []cdsItem, pos, from, to, slot int) {
	n := len(cur.members[to])
	if n > m.room[to] {
		m.relayouts++
		m.layout(cur, fzt)
		return
	}
	o, last := m.off[from], m.off[from]+len(cur.members[from])
	m.f[o+slot], m.z[o+slot], m.t[o+slot] = m.f[last], m.z[last], m.t[last]
	o = m.off[to] + n - 1
	x := fzt[pos]
	m.f[o], m.z[o], m.t[o] = x.f, x.z, x.tfz
}

// scan is refresh's member scan over group g, whose position list is
// members: the kernel over the largest multiple of 8 members, then
// maxFirst over the rest. Like maxFirst it returns the maximum Δc as
// an orderKey, a member's position attaining it, and whether any other
// member may attain it too; when not, that member is the only one.
func (m *memberArrays) scan(g int, members []int, fzt []cdsItem, dz, df float64) (best int64, at int32, tied bool) {
	n8 := len(members) &^ 7
	best, at, tied = maxFirst(members[n8:], fzt, dz, df)
	if n8 == 0 {
		return best, at, tied
	}
	o := m.off[g]
	v, i, vTied := maxReductionAVX2(&m.f[o], &m.z[o], &m.t[o], n8, dz, df)
	switch key := orderKey(v); {
	case key > best:
		return key, int32(members[i]), vTied
	case key == best:
		return best, at, true
	}
	return best, at, tied
}

// maxFirst evaluates the members' Δc at dz and df as MoveReduction does
// (the aggregate differences and the 2·f·z term hoisted; same
// expression, same bits) and returns the maximum as an orderKey, the
// position of its first occurrence in list order, and tied: whether
// the runner-up, the largest value met apart from that occurrence,
// equals it (as it does, vacuously, for −Inf). The maxima run over
// orderKeys, not floats: the compiler turns integer running maxima
// into conditional moves, while a float one stays a branch that
// mispredicts whenever list order correlates with Δc.
func maxFirst(members []int, fzt []cdsItem, dz, df float64) (best int64, at int32, tied bool) {
	best, next, at := orderKey(math.Inf(-1)), orderKey(math.Inf(-1)), int32(-1)
	for _, pos := range members {
		it := fzt[pos]
		key := orderKey(it.f*dz + it.z*df - it.tfz)
		next = max(next, min(key, best))
		if key > best {
			best, at = key, int32(pos)
		}
	}
	return best, at, next == best
}

// maxByPosition is the members' maximum Δc at dz and df as an orderKey
// and the smallest position attaining it, (−Inf, −1) when none exceeds
// −Inf: the scan where the maximum is tied, so list order cannot
// decide. A larger Δc, or an equal one at a smaller position, replaces
// the running maximum.
func maxByPosition(members []int, fzt []cdsItem, dz, df float64) (int64, int32) {
	best, at := orderKey(math.Inf(-1)), int32(-1)
	for _, pos := range members {
		it := fzt[pos]
		if key := orderKey(it.f*dz + it.z*df - it.tfz); key > best || key == best && int32(pos) < at {
			best, at = key, int32(pos)
		}
	}
	return best, at
}
