package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// withKernel runs f once per kernel setting: "go" with both kernels
// off, so refresh and pick run their scalar loops, and "avx2" with the
// member scan and the pass scan forced at every size. The avx2 pass is
// skipped on hosts without AVX2.
func withKernel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, mode := range []struct {
		name  string
		floor int
	}{{"go", noKernel}, {"avx2", 0}} {
		t.Run(mode.name, func(t *testing.T) {
			if mode.floor != noKernel && !haveAVX2() {
				t.Skip("no AVX2 on this host")
			}
			defer setKernelFloor(mode.floor)()
			f(t)
		})
	}
}

// setKernelFloor sets kernelFloor and passFloor to floor and returns
// the function restoring both.
func setKernelFloor(floor int) (restore func()) {
	oldMember, oldPass := kernelFloor, passFloor
	kernelFloor, passFloor = floor, floor
	return func() { kernelFloor, passFloor = oldMember, oldPass }
}

// loopScan is the reference the member scan must reproduce: the scalar
// loop over a group's members in ascending position, where only a
// strictly larger Δc displaces the running maximum. It returns the
// maximum as an orderKey and the smallest position attaining it,
// (−Inf, −1) for an empty group.
func loopScan(members []int, fzt []cdsItem, dz, df float64) (int64, int32) {
	best, at := orderKey(math.Inf(-1)), int32(-1)
	for _, pos := range slices.Sorted(slices.Values(members)) {
		it := fzt[pos]
		if key := orderKey(it.f*dz + it.z*df - it.tfz); key > best {
			best, at = key, int32(pos)
		}
	}
	return best, at
}

// scramble shuffles every group's position list and the slot index
// with it, as a refinement's moves leave them.
func scramble(rng *rand.Rand, cur *Allocation) {
	for _, m := range cur.members {
		rng.Shuffle(len(m), func(i, j int) { m[i], m[j] = m[j], m[i] })
		for i, pos := range m {
			cur.slot[pos] = int32(i)
		}
	}
}

// checkMemberArrays fails unless every group's window lies inside its
// room, no two windows overlap, and every item's f, z and 2·f·z sit in
// its group's window at the slot the slot index gives it, the slot
// that holds it in the group's position list.
func checkMemberArrays(t *testing.T, what string, m *memberArrays, cur *Allocation, fzt []cdsItem) {
	t.Helper()
	end := 0
	for g, members := range cur.members {
		o := m.off[g]
		if o < end || len(members) > m.room[g] || o+m.room[g] > len(m.f) {
			t.Fatalf("%s: group %d window [%d, %d+%d) with %d members overlaps or overflows (previous end %d, buffer %d)",
				what, g, o, o, m.room[g], len(members), end, len(m.f))
		}
		end = o + m.room[g]
	}
	for pos, g := range cur.channel {
		i := int(cur.slot[pos])
		if members := cur.members[g]; i >= len(members) || members[i] != pos {
			t.Fatalf("%s: position %d indexed at slot %d of group %d, which lists %v", what, pos, i, g, members)
		}
		o := m.off[g] + i
		if x := fzt[pos]; m.f[o] != x.f || m.z[o] != x.z || m.t[o] != x.tfz {
			t.Fatalf("%s: group %d slot %d (position %d) holds (%v, %v, %v), want %+v",
				what, g, i, pos, m.f[o], m.z[o], m.t[o], x)
		}
	}
}

// checkScan fails unless group g's member scan, through the kernel
// and through maxFirst, reports a tie exactly when the loop's maximum
// occurs more than once and, when it does not, names that member; and
// unless refresh's scan, with its position-comparing second scan on a
// tie, gives the loop's maximum to the bit and its smallest position.
func checkScan(t *testing.T, what string, m *memberArrays, cur *Allocation, fzt []cdsItem, g int, dz, df float64) {
	t.Helper()
	members := cur.ChannelPositions(g)
	wantKey, wantPos := loopScan(members, fzt, dz, df)
	count := 0
	for _, pos := range members {
		if it := fzt[pos]; orderKey(it.f*dz+it.z*df-it.tfz) == wantKey {
			count++
		}
	}
	for _, scan := range []struct {
		name string
		run  func() (int64, int32, bool)
	}{
		{"kernel", func() (int64, int32, bool) { return m.scan(g, members, fzt, dz, df) }},
		{"loop", func() (int64, int32, bool) { return maxFirst(members, fzt, dz, df) }},
	} {
		key, pos, tied := scan.run()
		if key != wantKey || tied != (count != 1) || !tied && pos != wantPos {
			t.Fatalf("%s: %s scan of group %d (%d members), dz=%v df=%v: (%v, %d, tied %v); maximum %v at %d, met %d times",
				what, scan.name, g, len(members), dz, df, keyFloat(key), pos, tied, keyFloat(wantKey), wantPos, count)
		}
		if tied {
			key, pos = maxByPosition(members, fzt, dz, df)
		}
		if key != wantKey || pos != wantPos {
			t.Fatalf("%s: %s scan of group %d (%d members), dz=%v df=%v: (%v, %d) after the tie scan, loop (%v, %d)",
				what, scan.name, g, len(members), dz, df, keyFloat(key), pos, keyFloat(wantKey), wantPos)
		}
	}
}

// cdsItems is the selector's per-position item constants for db.
func cdsItems(db *Database) []cdsItem {
	fzt := make([]cdsItem, db.Len())
	for i, it := range db.items {
		fzt[i] = cdsItem{f: it.Freq, z: it.Size, tfz: 2 * it.Freq * it.Size}
	}
	return fzt
}

// TestMemberScanMatchesLoop is the kernel-versus-loop differential:
// group lengths 0–67 (so every tail length 0–7 meets kernel lengths
// 0–64), in scrambled member order, on diverse, tie-heavy and
// extreme-magnitude databases, with dz and df of both signs, must give
// the loop's maximum to the bit and its smallest position (checkScan).
// On the tie-heavy database ties must occur.
func TestMemberScanMatchesLoop(t *testing.T) {
	if !haveAVX2() {
		t.Skip("no AVX2 on this host")
	}
	const n = 140
	dbs := []struct {
		name string
		db   *Database
	}{
		{"diverse", diverseDatabase(t, 3, n, 0.8, 2)},
		{"ties", tieDatabase(t, 3, n)},
		{"extreme", extremeDatabase(t, 3, n)},
	}
	for _, tc := range dbs {
		fzt := cdsItems(tc.db)
		rng := rand.New(rand.NewSource(7))
		ties := 0
		for length := 0; length <= 67; length++ {
			// Group 0 takes a random length-member subset, group 1 the rest.
			channel := make([]int, n)
			for i := range channel {
				channel[i] = 1
			}
			for _, pos := range rng.Perm(n)[:length] {
				channel[pos] = 0
			}
			cur, err := NewAllocation(tc.db, 2, channel)
			if err != nil {
				t.Fatal(err)
			}
			scramble(rng, cur)
			m := newMemberArrays(cur, fzt)
			checkMemberArrays(t, tc.name, m, cur, fzt)
			agg := cur.Aggregates()
			dz, df := agg[0].Z-agg[1].Z, agg[0].F-agg[1].F
			if tc.name == "ties" {
				// Small integers: many members share the maximum.
				dz, df = float64(1+rng.Intn(4)), float64(1+rng.Intn(4))
			}
			for _, sign := range [][2]float64{{1, 1}, {1, -1}, {-1, 1}, {-1, -1}} {
				sz, sf := sign[0]*dz, sign[1]*df
				checkScan(t, fmt.Sprintf("%s length %d", tc.name, length), m, cur, fzt, 0, sz, sf)
				if _, _, tied := m.scan(0, cur.members[0], fzt, sz, sf); tied && length > 0 {
					ties++
				}
			}
		}
		if tc.name == "ties" && ties == 0 {
			t.Fatal("ties: no scan met a tied maximum")
		}
	}
}

// TestMemberScanTieAnywhere places a group's maximum on exactly two of
// its 27 members, every pair of them in turn: in one kernel lane, in
// two lanes, in the lanes and the scalar tail, or in the tail alone.
// checkScan must pass on each, so every such tie is reported.
func TestMemberScanTieAnywhere(t *testing.T) {
	if !haveAVX2() {
		t.Skip("no AVX2 on this host")
	}
	const n = 27
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			// With dz = 0 and df = 1 a member's Δc is −z: the two
			// members of size 0.5 share the maximum.
			items := make([]Item, n+2)
			for i := range items {
				items[i] = Item{ID: i + 1, Freq: 1, Size: 1 + float64(i)/64}
			}
			items[a].Size, items[b].Size = 0.5, 0.5
			channel := make([]int, n+2)
			channel[n], channel[n+1] = 1, 1
			db := MustNewDatabase(items)
			cur, err := NewAllocation(db, 2, channel)
			if err != nil {
				t.Fatal(err)
			}
			fzt := cdsItems(db)
			checkScan(t, fmt.Sprintf("maximum at %d and %d", a, b), newMemberArrays(cur, fzt), cur, fzt, 0, 0, 1)
		}
	}
}

// FuzzMemberScan fuzzes the same property: rawN picks a window of 0–70
// members, seed the permutation of positions its list holds, and each
// byte of pairs one member's (f, z) from a palette of eight values
// each, so members often share a pair; dz and df are quarters of small
// integers of either sign, so equal maxima are common. checkScan must
// pass.
func FuzzMemberScan(f *testing.F) {
	f.Add(int64(1), uint8(16), []byte{0, 0, 9, 9, 0, 0, 9, 9}, int8(1), int8(1))
	f.Add(int64(2), uint8(70), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, int8(-3), int8(2))
	f.Add(int64(3), uint8(9), []byte{0x3f}, int8(0), int8(-1))
	f.Add(int64(4), uint8(40), []byte{}, int8(5), int8(-5))
	f.Fuzz(func(t *testing.T, seed int64, rawN uint8, pairs []byte, dz, df int8) {
		if !haveAVX2() {
			t.Skip("no AVX2 on this host")
		}
		palette := [8]float64{1, 2, 3, 0.5, 0.25, 1e-3, 1e3, 7}
		n := int(rawN) % 71
		items := make([]Item, n+2)
		for i := range items {
			b := byte(i)
			if len(pairs) > 0 {
				b = pairs[i%len(pairs)]
			}
			items[i] = Item{ID: i + 1, Freq: palette[b&7], Size: palette[b>>3&7]}
		}
		db := MustNewDatabase(items)
		// Group 0 holds n of the n+2 positions in a seeded order.
		perm := rand.New(rand.NewSource(seed)).Perm(n + 2)
		channel := make([]int, n+2)
		channel[perm[n]], channel[perm[n+1]] = 1, 1
		cur, err := NewAllocation(db, 2, channel)
		if err != nil {
			t.Fatal(err)
		}
		cur.members[0] = perm[:n]
		for i, pos := range perm[:n] {
			cur.slot[pos] = int32(i)
		}
		fzt := cdsItems(db)
		m := newMemberArrays(cur, fzt)
		checkMemberArrays(t, "fuzz", m, cur, fzt)
		checkScan(t, "fuzz", m, cur, fzt, 0, float64(dz)/4, float64(df)/4)
	})
}

// TestMemberArraysFollowMoves moves every item into group 0, which
// outgrows its room and has every window laid out again several times,
// then walks random moves. After each move it checks the arrays through
// the slot index against the position lists, which the moves leave
// scrambled, and the scans of both touched groups against the loop.
func TestMemberArraysFollowMoves(t *testing.T) {
	if !haveAVX2() {
		t.Skip("no AVX2 on this host")
	}
	defer setKernelFloor(0)()
	db := diverseDatabase(t, 4, 120, 0.8, 2)
	cur := randomAllocation(t, db, 5, 2)
	agg := cur.Aggregates()
	sel := newIncrementalSelector(cur, agg)
	if sel.arr == nil {
		t.Fatal("kernel forced but no member arrays built")
	}
	rng := rand.New(rand.NewSource(5))
	move := func(what string, m Move) {
		applyMove(cur, agg, sel, m)
		checkMemberArrays(t, what, sel.arr, cur, sel.fzt)
		for _, g := range []int{m.From, m.To} {
			checkScan(t, what, sel.arr, cur, sel.fzt, g, agg[g].Z-agg[(g+1)%5].Z, agg[g].F-agg[(g+1)%5].F)
		}
	}
	for pos := 0; pos < db.Len(); pos++ {
		if from := cur.ChannelOf(pos); from != 0 {
			move(fmt.Sprintf("gather %d", pos), Move{Pos: pos, From: from, To: 0})
		}
	}
	for step := 0; step < 300; step++ {
		move(fmt.Sprintf("walk %d", step), randomMove(rng, cur))
	}
	if sel.arr.relayouts < 2 {
		t.Fatalf("the windows were laid out again %d times, want at least 2", sel.arr.relayouts)
	}
	if slices.IsSorted(cur.ChannelPositions(0)) && slices.IsSorted(cur.ChannelPositions(1)) {
		t.Fatal("the moves left groups 0 and 1 in ascending order; the windows were not scrambled")
	}
}

// loopPass is pick's scalar pass over a flat table, the reference the
// pass scan must reproduce: the cells that reach the threshold t, in
// ascending order. Visiting a cell marked raise with a value above t
// lifts t to it, as a fresh cell that becomes the best lifts bestDC.
func loopPass(dc []float64, raise []bool, t float64) []int {
	var seq []int
	for c, v := range dc {
		if v < t {
			continue
		}
		seq = append(seq, c)
		if raise[c] && v > t {
			t = v
		}
	}
	return seq
}

// kernelPass is the same pass through pick's kernel walk: passScanAVX2
// over the full blocks, each hit mask walked in ascending bit order and
// re-checked against the current t, then the scalar loop over the tail.
func kernelPass(dc []float64, raise []bool, t float64) []int {
	var seq []int
	c0, n16 := 0, len(dc)&^15
	for c0 < n16 {
		at, mask := passScanAVX2(&dc[c0], n16-c0, t)
		block := c0 + at
		for ; mask != 0; mask &= mask - 1 {
			c := block + bits.TrailingZeros64(mask)
			if dc[c] < t {
				continue
			}
			seq = append(seq, c)
			if raise[c] && dc[c] > t {
				t = dc[c]
			}
		}
		c0 = block + 16
	}
	for c := n16; c < len(dc); c++ {
		if dc[c] < t {
			continue
		}
		seq = append(seq, c)
		if raise[c] && dc[c] > t {
			t = dc[c]
		}
	}
	return seq
}

// passPalette is the values a pass-scan table draws its cells from: the
// diagonal's −Inf, both zeros, the thresholds themselves and their
// neighbours, NaN, and a spread of ordinary values.
var passPalette = []float64{
	math.Inf(-1), math.Copysign(0, -1), 0, 1, 2, 3,
	math.Nextafter(1, 0), math.Nextafter(2, 3), -1, -0.5, 0.5, 2.5,
	math.Inf(1), math.NaN(), 1e-300, 1e300,
}

// checkPass fails unless kernelPass visits exactly loopPass's cells.
func checkPass(t *testing.T, what string, dc []float64, raise []bool, thr float64) {
	t.Helper()
	want := loopPass(dc, raise, thr)
	if got := kernelPass(dc, raise, thr); !slices.Equal(got, want) {
		t.Fatalf("%s: %d cells from t=%v: kernel visits %v, loop %v", what, len(dc), thr, got, want)
	}
}

// TestPassScanMatchesLoop is the pass-kernel-versus-loop differential:
// tables of 1–300 cells (every tail length 0–15 against 0–18 full
// blocks), random over passPalette or tie-heavy over {−Inf, ±0, 1, 2},
// with a third of the cells raising the threshold when visited, from
// thresholds 0, 1 and 2. The kernel-driven pass must visit the scalar
// pass's cells in the same order.
func TestPassScanMatchesLoop(t *testing.T) {
	if !haveAVX2() {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(27))
	ties := []float64{math.Inf(-1), math.Copysign(0, -1), 0, 1, 2}
	for length := 1; length <= 300; length++ {
		for trial := 0; trial < 8; trial++ {
			palette := passPalette
			if trial%2 == 1 {
				palette = ties
			}
			dc, raise := make([]float64, length), make([]bool, length)
			for c := range dc {
				dc[c], raise[c] = palette[rng.Intn(len(palette))], rng.Intn(3) == 0
			}
			for _, thr := range []float64{0, 1, 2} {
				checkPass(t, fmt.Sprintf("trial %d", trial), dc, raise, thr)
			}
		}
	}
}

// FuzzPassScan fuzzes the same property: each byte of cells is one
// cell, its low nibble a passPalette index and its high bit whether
// visiting it raises the threshold; thr picks the starting threshold.
func FuzzPassScan(f *testing.F) {
	f.Add(uint8(0), []byte{3, 0x84, 2, 0, 1, 5, 0x83, 4, 4, 3, 2, 1, 0, 0x85, 6, 7, 8, 9, 0x8d})
	f.Add(uint8(1), make([]byte, 40))
	f.Add(uint8(2), []byte{0x85, 0x84, 0x83, 0x82, 0x81, 0x80, 5, 4, 3, 2, 1, 0, 5, 4, 3, 2, 1, 0, 0x8c, 0x8d, 3, 3, 3})
	f.Fuzz(func(t *testing.T, thr uint8, cells []byte) {
		if !haveAVX2() {
			t.Skip("no AVX2 on this host")
		}
		dc, raise := make([]float64, len(cells)), make([]bool, len(cells))
		for c, b := range cells {
			dc[c], raise[c] = passPalette[int(b&15)], b&0x80 != 0
		}
		checkPass(t, "fuzz", dc, raise, float64(thr%4))
	})
}

// selectorRun drives the default engine on a like refine, applying
// every move next hands out until it finds none, and returns the moves
// and the selector's counters. It fails unless the selector runs the
// pass scan exactly when wantPass is set, and fails rather than run on
// past 10·N moves: a selector that hands out a stale move as exact can
// offer it forever.
func selectorRun(t *testing.T, a *Allocation, wantPass bool) ([]Move, selStats) {
	t.Helper()
	cur := a.Clone()
	agg := cur.Aggregates()
	sel := newIncrementalSelector(cur, agg)
	if sel.passKernel != wantPass {
		t.Fatalf("K=%d: pass kernel %v, want %v", cur.K(), sel.passKernel, wantPass)
	}
	var moves []Move
	for {
		m, found := sel.next()
		if !found {
			return moves, sel.stats()
		}
		if len(moves) == 10*cur.db.Len() {
			t.Fatalf("K=%d: no local optimum after %d moves", cur.K(), len(moves))
		}
		applyMove(cur, agg, sel, m)
		moves = append(moves, m)
	}
}

// TestPassCellsSameWithAndWithoutKernel makes "the pass scan visits the
// scalar loop's cells" an exact count: full refinements of the Table 5
// shape (Zipf θ = 0.8, sizes over Φ = 2 decades) from DRP and random
// starts, K from 16 to 64, must apply the same moves and hand the same
// number of cells to the fresh/stale test with both kernels forced as
// with both off.
func TestPassCellsSameWithAndWithoutKernel(t *testing.T) {
	if !haveAVX2() {
		t.Skip("no AVX2 on this host")
	}
	db := diverseDatabase(t, 1, 2000, 0.8, 2)
	for _, k := range []int{16, 23, 64} {
		drp, err := NewDRP().Allocate(db, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, start := range []struct {
			name string
			a    *Allocation
		}{{"drp", drp}, {"random", randomAllocation(t, db, k, k)}} {
			restore := setKernelFloor(noKernel)
			goMoves, goStats := selectorRun(t, start.a, false)
			restore()
			restore = setKernelFloor(0)
			kMoves, kStats := selectorRun(t, start.a, true)
			restore()
			if !slices.Equal(goMoves, kMoves) {
				t.Fatalf("K=%d %s: the kernels change the moves (%d against %d)", k, start.name, len(kMoves), len(goMoves))
			}
			// Only the member kernel lays windows out or rescans ties.
			kStats.rescanned, kStats.relayouts = 0, 0
			if goStats != kStats || goStats.visited == 0 {
				t.Fatalf("K=%d %s: counters with the kernels %+v, without %+v", k, start.name, kStats, goStats)
			}
			t.Logf("K=%d %s: %d moves, %d pass cells visited (%.1f per pick of %d cells)",
				k, start.name, len(goMoves), goStats.visited, float64(goStats.visited)/float64(len(goMoves)+1), k*k)
		}
	}
}

// TestCDSWorkCounts pins the default engine's work as exact counts:
// full refinements from DRP starts on the Table 5 shape at N=10⁴ (the
// core tests' generator, θ = 0.8, Φ = 2, seed 1), K = 8 and 64, must
// apply the same number of moves, scan the same number of members in
// exact cell scans (the table build included) and hand pick's passes
// the same number of cells, with both kernels off and with both
// forced. The counts are the same on every host, so a change in the
// engine's work shows here whatever the machine. With the member
// kernel the windows are laid out again a pinned number of times. No
// cell scan's maximum is tied on this catalog, so no member is scanned
// twice, while a full refinement of a tie-heavy catalog (N=2000, K=8)
// must rescan some.
//
// Before the cells' bounds were anchored at their last exact scan (each
// touched bound raised by every move's aggregate rise, a fall never
// credited) the same refinements made the same moves and scanned
// 14,189,292 members (5,449 per move) with 20,633 pass cells at K=8,
// and 65,726,641 members (9,759 per move) with 440,462 pass cells at
// K=64.
func TestCDSWorkCounts(t *testing.T) {
	db := diverseDatabase(t, 1, 10000, 0.8, 2)
	for _, want := range []struct {
		k, moves            int
		recomputed, visited int64
		relayouts           int64 // with the member kernel
	}{
		{8, 2604, 10130869, 16909, 2},
		{64, 6735, 14401261, 189063, 8},
	} {
		drp, err := NewDRP().Allocate(db, want.k)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("K=%d", want.k), func(t *testing.T) {
			withKernel(t, func(t *testing.T) {
				moves, st := selectorRun(t, drp, passFloor != noKernel)
				relayouts := want.relayouts
				if kernelFloor == noKernel {
					relayouts = 0
				}
				if len(moves) != want.moves || st.recomputed != want.recomputed || st.visited != want.visited ||
					st.rescanned != 0 || st.relayouts != relayouts {
					t.Errorf("%d moves, %d members scanned, %d pass cells, %d rescanned, %d relayouts; want %d, %d, %d, 0, %d",
						len(moves), st.recomputed, st.visited, st.rescanned, st.relayouts,
						want.moves, want.recomputed, want.visited, relayouts)
				}
			})
		})
	}
	ties, err := NewDRP().Allocate(tieDatabase(t, 1, 2000), 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("ties", func(t *testing.T) {
		withKernel(t, func(t *testing.T) {
			moves, st := selectorRun(t, ties, passFloor != noKernel)
			if st.rescanned == 0 {
				t.Errorf("no member rescanned over %d moves", len(moves))
			}
			t.Logf("%d moves, %d members scanned, %d rescanned", len(moves), st.recomputed, st.rescanned)
		})
	})
}
