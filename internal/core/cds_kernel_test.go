package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// withKernel runs f once per refresh path: "go" with the scalar loop
// and "avx2" with the kernel forced at every size. The avx2 pass is
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

// setKernelFloor sets kernelFloor and returns the function restoring it.
func setKernelFloor(floor int) (restore func()) {
	old := kernelFloor
	kernelFloor = floor
	return func() { kernelFloor = old }
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
