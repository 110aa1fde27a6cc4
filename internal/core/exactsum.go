package core

import (
	"math"
	"math/bits"
)

// This file holds the exact group sums behind every aggregate. A
// group's F (Z) is the float64 nearest the exact sum of its members'
// frequencies (sizes), ties to even: one value, whatever order the
// members are added in. The sums run in fixed point, so a member
// joining or leaving a group costs one integer add or subtract. An
// Allocation keeps every channel's sums, built once in O(N) and updated
// per move in O(1), so reading a channel's aggregates costs O(1) and
// CDS's running aggregates stay bit-equal to a fresh Aggregates call.

// sumFrame is a database's fixed-point frame. Every Freq and Size of
// the database is an integer multiple of 2^e0, so any sum of them is
// too, and limbs uint64 words, least significant first, hold N times
// the largest value: 2 on Table 5 catalogs, at most 34 for values
// spanning the whole float64 range.
type sumFrame struct {
	e0    int
	limbs int
}

// mantExp splits a positive finite x into m·2^e, where m < 2⁵³ is its
// integer significand and e its ulp exponent.
func mantExp(x float64) (m uint64, e int) {
	b := math.Float64bits(x)
	m = b & (1<<52 - 1)
	if be := int(b >> 52); be != 0 {
		return m | 1<<52, be - 1075
	}
	return m, -1074
}

// newSumFrame fixes the frame of a database's values: e0 is their
// smallest ulp exponent, and every value lies below 2^(top+53) for
// their largest ulp exponent top, so N of them sum below
// 2^(top+53+bits.Len(N)).
//
//diverselint:coldpath one pass over the items at database construction
func newSumFrame(items []Item) sumFrame {
	e0, top := math.MaxInt, math.MinInt
	for _, it := range items {
		_, ef := mantExp(it.Freq)
		_, ez := mantExp(it.Size)
		e0, top = min(e0, ef, ez), max(top, ef, ez)
	}
	width := top + 53 + bits.Len(uint(len(items))) - e0
	return sumFrame{e0: e0, limbs: (width + 63) / 64}
}

// placed is a database value in its frame: its significand, shifted
// into place, covers limbs i and i+1 with lo and hi.
type placed struct {
	i      uint
	lo, hi uint64
}

// place puts the database value x in the frame.
func (fr sumFrame) place(x float64) placed {
	m, e := mantExp(x)
	s := uint(e - fr.e0)
	return placed{s / 64, m << (s % 64), m >> (64 - s%64)}
}

// addTo adds the value to the sum held in acc; the carry out of its
// two limbs runs on until it is absorbed.
func (p placed) addTo(acc []uint64) {
	i := p.i
	var c uint64
	acc[i], c = bits.Add64(acc[i], p.lo, 0)
	for hi := p.hi + c; hi != 0; {
		i++
		acc[i], hi = bits.Add64(acc[i], hi, 0)
	}
}

// subFrom subtracts the value, which the sum held in acc includes,
// from it.
func (p placed) subFrom(acc []uint64) {
	i := p.i
	var c uint64
	acc[i], c = bits.Sub64(acc[i], p.lo, 0)
	for hi := p.hi + c; hi != 0; {
		i++
		acc[i], hi = bits.Sub64(acc[i], hi, 0)
	}
}

// round returns the float64 nearest the sum in acc, ties to even. It
// takes the sum's 64 leading bits, folds every bit below them into the
// lowest one (which lies below the rounding position, so it only
// breaks ties), and rounds to 53 bits. A sum below the normal range is
// a multiple of 2^e0 ≥ 2⁻¹⁰⁷⁴ with at most 52 significant bits, so its
// subnormal is exact. A sum beyond the float64 range reads +Inf.
func (fr sumFrame) round(acc []uint64) float64 {
	i := len(acc) - 1
	for i > 0 && acc[i] == 0 {
		i--
	}
	top := acc[i]
	if top == 0 {
		return 0
	}
	n := uint(bits.LeadingZeros64(top))
	top <<= n
	if i > 0 {
		low := acc[i-1]
		top |= low >> (64 - n)
		low <<= n
		for _, l := range acc[:i-1] {
			low |= l
		}
		if low != 0 {
			top |= 1
		}
	}
	// top's bit 0 weighs 2^(e0+64i−n). Round its 11 low bits away: up
	// when they exceed half an ulp, or equal it and m is odd.
	m := top >> 11
	m += (top&(1<<11-1) + m&1 + 1<<10 - 1) >> 11
	be := fr.e0 + 64*i - int(n) + 11 + 1075 // biased exponent of m's bit 52
	if m == 1<<53 {
		m >>= 1
		be++
	}
	switch {
	case be >= 0x7FF:
		return math.Inf(1)
	case be <= 0:
		return math.Float64frombits(m >> uint(1-be))
	}
	return math.Float64frombits(uint64(be)<<52 | m&(1<<52-1))
}

// buildSums sums every channel's frequencies and sizes into a.sums in
// one pass over the member lists, which must be built.
//
//diverselint:coldpath O(N) build at allocation construction; per-move updates go through moveSums
func (a *Allocation) buildSums() {
	fr := a.db.frame
	a.sums = make([]uint64, 2*fr.limbs*a.k)
	for c, m := range a.members {
		f, z := a.channelSums(c)
		for _, pos := range m {
			it := &a.db.items[pos]
			fr.place(it.Freq).addTo(f)
			fr.place(it.Size).addTo(z)
		}
	}
}

// channelSums returns channel c's F and Z limbs.
func (a *Allocation) channelSums(c int) (f, z []uint64) {
	l := a.db.frame.limbs
	s := a.sums[2*l*c : 2*l*(c+1)]
	return s[:l], s[l:]
}

// moveSums moves the frequency and size of the item at pos from
// channel src's sums to channel dest's: one subtract and one add per
// sum, whatever the channels' sizes.
//
//diverselint:hotpath per-applied-move aggregate update
func (a *Allocation) moveSums(pos, src, dest int) {
	fr := a.db.frame
	it := &a.db.items[pos]
	pf, pz := fr.place(it.Freq), fr.place(it.Size)
	f, z := a.channelSums(src)
	pf.subFrom(f)
	pz.subFrom(z)
	f, z = a.channelSums(dest)
	pf.addTo(f)
	pz.addTo(z)
}
