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

// loopScan is refresh's scalar loop over the members of group g, the
// reference the kernel must reproduce: the maximum as an orderKey and
// the member index (not position) of its first occurrence.
func loopScan(cur *Allocation, fzt []cdsItem, g int, dz, df float64) (int64, int) {
	best, at := orderKey(math.Inf(-1)), -1
	for i, pos := range cur.ChannelPositions(g) {
		it := fzt[pos]
		if key := orderKey(it.f*dz + it.z*df - it.tfz); key > best {
			best, at = key, i
		}
	}
	return best, at
}

// checkMemberArrays fails unless every group's window holds its
// members' f, z and 2·f·z in member order, inside its room, and no two
// windows overlap.
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
		for i, pos := range members {
			if x := fzt[pos]; m.f[o+i] != x.f || m.z[o+i] != x.z || m.t[o+i] != x.tfz {
				t.Fatalf("%s: group %d member %d (position %d) holds (%v, %v, %v), want %+v",
					what, g, i, pos, m.f[o+i], m.z[o+i], m.t[o+i], x)
			}
		}
	}
}

// TestMemberScanMatchesLoop is the kernel-versus-loop differential:
// group lengths 0–67 (so every tail length 0–7 meets kernel lengths
// 0–64) on diverse, tie-heavy and extreme-magnitude databases, with
// dz and df of both signs, must give the loop's maximum to the bit and
// its first member index.
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
		fzt := make([]cdsItem, n)
		for i, it := range tc.db.items {
			fzt[i] = cdsItem{f: it.Freq, z: it.Size, tfz: 2 * it.Freq * it.Size}
		}
		rng := rand.New(rand.NewSource(7))
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
				gotKey, gotAt := m.scan(0, length, sz, sf)
				wantKey, wantAt := loopScan(cur, fzt, 0, sz, sf)
				if gotKey != wantKey || gotAt != wantAt {
					t.Fatalf("%s length %d dz=%v df=%v: kernel (%v, %d), loop (%v, %d)",
						tc.name, length, sz, sf, keyFloat(gotKey), gotAt, keyFloat(wantKey), wantAt)
				}
			}
		}
	}
}

// TestMemberArraysFollowMoves moves every item into group 0, which
// outgrows its room and has every window laid out again several times,
// then walks random moves, and checks the arrays against the position
// lists after each move.
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
	relayouts := 0
	move := func(what string, m Move) {
		room := sel.arr.room[m.To]
		applyMove(cur, agg, sel, m)
		if sel.arr.room[m.To] != room {
			relayouts++
		}
		checkMemberArrays(t, what, sel.arr, cur, sel.fzt)
	}
	for pos := 0; pos < db.Len(); pos++ {
		if from := cur.ChannelOf(pos); from != 0 {
			move(fmt.Sprintf("gather %d", pos), Move{Pos: pos, From: from, To: 0})
		}
	}
	for step := 0; step < 300; step++ {
		move(fmt.Sprintf("walk %d", step), randomMove(rng, cur))
	}
	if relayouts < 2 {
		t.Fatalf("the windows were laid out again %d times, want at least 2", relayouts)
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
// engine's work shows here whatever the machine.
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
	}{
		{8, 2604, 10130869, 16909},
		{64, 6735, 14401261, 189063},
	} {
		drp, err := NewDRP().Allocate(db, want.k)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(fmt.Sprintf("K=%d", want.k), func(t *testing.T) {
			withKernel(t, func(t *testing.T) {
				moves, st := selectorRun(t, drp, passFloor != noKernel)
				if len(moves) != want.moves || st.recomputed != want.recomputed || st.visited != want.visited {
					t.Errorf("%d moves, %d members scanned, %d pass cells; want %d, %d, %d",
						len(moves), st.recomputed, st.visited, want.moves, want.recomputed, want.visited)
				}
			})
		})
	}
}
