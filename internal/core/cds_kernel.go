package core

import (
	"math"
	"sort"
)

// kernelMinMean is the crossover of the AVX2 member scan: the fewest
// members per group, on average (N/K), at which a refinement builds
// member arrays and refresh takes the kernel. Below it the kernel's
// call, scalar tail and array upkeep cost more than its lanes save
// (measured in DESIGN.md §11).
const kernelMinMean = 32

// noKernel is kernelFloor's value where refresh never takes the kernel.
const noKernel = math.MaxInt

// kernelFloor is the mean group size from which refinements take the
// AVX2 member scan. It is set once at init: kernelMinMean where the CPU
// has AVX2 and the OS saves its registers, noKernel elsewhere and off
// amd64. Only tests change it, to 0 to force the kernel at every size
// or to noKernel to run the scalar loop on an AVX2 host.
var kernelFloor = initKernelFloor()

func initKernelFloor() int {
	if haveAVX2() {
		return kernelMinMean
	}
	return noKernel
}

// CDSKernel names the member scan the default CDS engine runs on this
// host once groups average 32 members or more (N/K ≥ 32): "avx2" for
// the vector kernel, "go" for the scalar loop. Both give the same bits.
func CDSKernel() string {
	if kernelFloor == noKernel {
		return "go"
	}
	return "avx2"
}

// memberArrays holds every group's members' f, z and 2·f·z in member
// order (ascending position), so the kernel streams them with plain
// vector loads instead of gathering cdsItems by position. The three
// arrays are carved from one buffer; group g owns [off[g], off[g]+n)
// of each, n its member count, and may grow to off[g]+room[g]. A group
// that outgrows its room has every window laid out again, each with
// slack spare slots, inside the same buffer: nothing is allocated after
// construction.
type memberArrays struct {
	f, z, t   []float64
	off, room []int
	slack     int
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
// updated the position lists: pos leaves from's window at the index it
// held and enters to's at the index it now holds.
func (m *memberArrays) moved(cur *Allocation, fzt []cdsItem, pos, from, to int) {
	mt := cur.members[to]
	if len(mt) > m.room[to] {
		m.layout(cur, fzt)
		return
	}
	mf := cur.members[from]
	o, n, i := m.off[from], len(mf), sort.SearchInts(mf, pos)
	copy(m.f[o+i:o+n], m.f[o+i+1:o+n+1])
	copy(m.z[o+i:o+n], m.z[o+i+1:o+n+1])
	copy(m.t[o+i:o+n], m.t[o+i+1:o+n+1])
	o, n, i = m.off[to], len(mt), sort.SearchInts(mt, pos)
	copy(m.f[o+i+1:o+n], m.f[o+i:o+n-1])
	copy(m.z[o+i+1:o+n], m.z[o+i:o+n-1])
	copy(m.t[o+i+1:o+n], m.t[o+i:o+n-1])
	x := fzt[pos]
	m.f[o+i], m.z[o+i], m.t[o+i] = x.f, x.z, x.tfz
}

// scan is refresh's member scan over group g's n members: the kernel
// over the largest multiple of 8, then the scalar loop over the rest.
// It returns the maximum Δc as an orderKey and the smallest member
// index attaining it, (−Inf, −1) for an empty group. The tail keeps the
// kernel's maximum unless strictly beaten, and its indexes are all
// larger, so the first maximum wins as in refresh's loop.
func (m *memberArrays) scan(g, n int, dz, df float64) (int64, int) {
	o := m.off[g]
	f, z, t := m.f[o:o+n], m.z[o:o+n], m.t[o:o+n]
	best, at := orderKey(math.Inf(-1)), -1
	n8 := n &^ 7
	if n8 > 0 {
		v, i := maxReductionAVX2(&f[0], &z[0], &t[0], n8, dz, df)
		best, at = orderKey(v), i
	}
	for i := n8; i < n; i++ {
		if key := orderKey(f[i]*dz + z[i]*df - t[i]); key > best {
			best, at = key, i
		}
	}
	return best, at
}
