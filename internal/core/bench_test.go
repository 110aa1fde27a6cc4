package core

import (
	"fmt"
	"testing"
)

// Micro-benchmarks for the paper's algorithms. DRP is an O(N) key
// order (ByBenefitRatio's radix sort) plus K·(O(K log K) + O(N)) for
// its split scans and heap, Lemma 1's bound once the items are in
// order. CDS's naive oracle pays O(K·N) move evaluations per applied
// move; the default lazy-bound table pays O(K) rebounds, one pass over
// its K² cells (sixteen per test in the AVX2 pass scan from K = 16),
// and one scan of the source group's members per refreshed cell. The
// N and K sweeps below make the scalings visible.

func benchDB(b *testing.B, n int) *Database {
	b.Helper()
	return randomDatabase(b, 1, n)
}

func BenchmarkDRP(b *testing.B) {
	for _, n := range []int{60, 120, 240, 480, 960, 10000} {
		db := benchDB(b, n)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewDRP().Allocate(db, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDRPOverK(b *testing.B) {
	db := benchDB(b, 240)
	for _, k := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewDRP().Allocate(db, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCDSRefine(b *testing.B) {
	for _, n := range []int{60, 120, 240} {
		db := benchDB(b, n)
		drp, err := NewDRP().Allocate(db, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("from-DRP/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewCDS().Refine(drp); err != nil {
					b.Fatal(err)
				}
			}
		})
		random := randomAllocation(b, db, 8, 2)
		b.Run(fmt.Sprintf("from-random/N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewCDS().Refine(random); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCDSScale is the production-scale CDS grid (N up to 10k,
// K up to 64) comparing the naive full rescan against the default
// lazy-bound pair table. Both strategies apply bit-identical moves (the
// differential trace tests prove it), so the ns/op ratio is pure
// selection-machinery cost. MaxMoves pins the number of applied moves
// so every (N, K) cell measures the same amount of optimization work
// regardless of where the local optimum lies; BENCH_*.json tracks the
// numbers across PRs. 200 moves is still far short of a full
// refinement at N=10k (which runs to a local optimum, typically
// thousands of moves), so the ratio here understates the end-to-end
// speedup: the incremental table's one-time build (one naive scan)
// is amortized over fewer moves than in real use. -short skips the
// N=10k column.
func BenchmarkCDSScale(b *testing.B) {
	const maxMoves = 200
	for _, n := range []int{120, 1000, 10000} {
		if n == 10000 && testing.Short() {
			continue
		}
		db := benchDB(b, n)
		for _, k := range []int{6, 16, 64} {
			a := randomAllocation(b, db, k, 7)
			for _, strat := range []CDSStrategy{StrategyNaive, StrategyIncremental} {
				b.Run(fmt.Sprintf("N=%d/K=%d/%s", n, k, strat), func(b *testing.B) {
					cds := &CDS{Strategy: strat, MaxMoves: maxMoves}
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := cds.Refine(a); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

func BenchmarkMoveReduction(b *testing.B) {
	db := benchDB(b, 100)
	a := randomAllocation(b, db, 8, 3)
	agg := a.Aggregates()
	it := db.Item(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = MoveReduction(it, agg[0], agg[1])
	}
}

func BenchmarkCost(b *testing.B) {
	db := benchDB(b, 480)
	a := randomAllocation(b, db, 8, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Cost(a)
	}
}

// BenchmarkByBenefitRatio times DRP's key order at the serve shape
// (N=120, below the insertion/radix crossover), N=960 and the plan
// shape (N=10⁴).
func BenchmarkByBenefitRatio(b *testing.B) {
	for _, n := range []int{120, 960, 10000} {
		db := benchDB(b, n)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = db.ByBenefitRatio()
			}
		})
	}
}

// BenchmarkBuildSums times the one O(N) pass that fills an allocation's
// exact group sums, paid once per allocation built (DRP's result, a
// replan's carried assignment).
func BenchmarkBuildSums(b *testing.B) {
	for _, n := range []int{120, 10000} {
		db := benchDB(b, n)
		a := randomAllocation(b, db, 8, 5)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.buildSums()
			}
		})
	}
}
