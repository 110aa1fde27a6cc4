package diversecast_test

// This file is the benchmark harness for the paper's evaluation: one
// benchmark family per figure (Figures 2–7) plus the worked example
// (Tables 2–4) and the ablations called out in DESIGN.md.
//
// Quality figures (2–5) report the analytical waiting time W_b of each
// algorithm as the custom metric "Wb_s" (seconds); the paper's y-axis.
// Complexity figures (6–7) are the ns/op timings of the same
// allocations — the paper's Figures 6 and 7 plot exactly this pair of
// curves for DRP-CDS and GOPT.
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"testing"

	"diversecast/internal/airsim"
	"diversecast/internal/baseline"
	"diversecast/internal/broadcast"
	"diversecast/internal/core"
	"diversecast/internal/gopt"
	"diversecast/internal/workload"
)

// benchAllocators is the comparison set of the paper's figures.
func benchAllocators(seed int64) []core.Allocator {
	return []core.Allocator{
		baseline.NewVFK(),
		core.NewDRP(),
		core.NewDRPCDS(),
		gopt.NewReference(seed),
	}
}

// benchAllocate times alg on db/k and reports the resulting W_b.
func benchAllocate(b *testing.B, alg core.Allocator, db *core.Database, k int) {
	b.Helper()
	var wb float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := alg.Allocate(db, k)
		if err != nil {
			b.Fatal(err)
		}
		wb = core.WaitingTime(a, workload.PaperBandwidth)
	}
	b.ReportMetric(wb, "Wb_s")
}

// BenchmarkTables2to4 reproduces the paper's worked example end to
// end: DRP (example-consistent order) plus the full CDS refinement on
// the Table 2 profile.
func BenchmarkTables2to4(b *testing.B) {
	db := core.PaperExampleDatabase()
	var cost float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := core.NewDRPExampleConsistent().Allocate(db, core.PaperExampleK)
		if err != nil {
			b.Fatal(err)
		}
		refined, err := core.NewCDS().Refine(a)
		if err != nil {
			b.Fatal(err)
		}
		cost = core.Cost(refined)
	}
	b.ReportMetric(cost, "cost") // the paper's 22.29
}

// BenchmarkFigure2 sweeps the channel count K (waiting-time figure).
func BenchmarkFigure2(b *testing.B) {
	db := workload.PaperDefaults(11).MustGenerate()
	for _, k := range []int{4, 6, 8, 10} {
		for _, alg := range benchAllocators(11) {
			b.Run(fmt.Sprintf("K=%d/%s", k, alg.Name()), func(b *testing.B) {
				benchAllocate(b, alg, db, k)
			})
		}
	}
}

// BenchmarkFigure3 sweeps the database size N (waiting-time figure).
func BenchmarkFigure3(b *testing.B) {
	for _, n := range []int{60, 120, 180} {
		db := workload.Config{N: n, Theta: 0.8, Phi: 2, Seed: 11}.MustGenerate()
		for _, alg := range benchAllocators(11) {
			b.Run(fmt.Sprintf("N=%d/%s", n, alg.Name()), func(b *testing.B) {
				benchAllocate(b, alg, db, 6)
			})
		}
	}
}

// BenchmarkFigure4 sweeps the diversity parameter Φ (waiting-time
// figure; the VFK collapse lives here).
func BenchmarkFigure4(b *testing.B) {
	for _, phi := range []float64{0, 1, 2, 3} {
		db := workload.Config{N: 120, Theta: 0.8, Phi: phi, Seed: 11}.MustGenerate()
		for _, alg := range benchAllocators(11) {
			b.Run(fmt.Sprintf("Phi=%g/%s", phi, alg.Name()), func(b *testing.B) {
				benchAllocate(b, alg, db, 6)
			})
		}
	}
}

// BenchmarkFigure5 sweeps the skewness parameter θ (waiting-time
// figure).
func BenchmarkFigure5(b *testing.B) {
	for _, theta := range []float64{0.4, 0.8, 1.2, 1.6} {
		db := workload.Config{N: 120, Theta: theta, Phi: 2, Seed: 11}.MustGenerate()
		for _, alg := range benchAllocators(11) {
			b.Run(fmt.Sprintf("Theta=%g/%s", theta, alg.Name()), func(b *testing.B) {
				benchAllocate(b, alg, db, 6)
			})
		}
	}
}

// BenchmarkFigure6 is the execution-time comparison over K: the ns/op
// column of DRP-CDS versus GOPT is the paper's Figure 6. GOPT is
// pinned to Workers: 1 here — the timing figures measure algorithmic
// cost, so the parallel evaluation fabric must not fold wall-clock by
// however many cores the benchmark machine happens to have.
func BenchmarkFigure6(b *testing.B) {
	db := workload.PaperDefaults(11).MustGenerate()
	for _, k := range []int{4, 6, 8, 10} {
		b.Run(fmt.Sprintf("K=%d/DRP-CDS", k), func(b *testing.B) {
			benchAllocate(b, core.NewDRPCDS(), db, k)
		})
		b.Run(fmt.Sprintf("K=%d/GOPT", k), func(b *testing.B) {
			g := gopt.NewReference(11)
			g.Workers = 1
			benchAllocate(b, g, db, k)
		})
	}
}

// BenchmarkFigure7 is the execution-time comparison over N (the
// paper's Figure 7; GOPT's time grows faster in N than in K). Serial
// GOPT for the same reason as Figure 6.
func BenchmarkFigure7(b *testing.B) {
	for _, n := range []int{60, 120, 180} {
		db := workload.Config{N: n, Theta: 0.8, Phi: 2, Seed: 11}.MustGenerate()
		b.Run(fmt.Sprintf("N=%d/DRP-CDS", n), func(b *testing.B) {
			benchAllocate(b, core.NewDRPCDS(), db, 6)
		})
		b.Run(fmt.Sprintf("N=%d/GOPT", n), func(b *testing.B) {
			g := gopt.NewReference(11)
			g.Workers = 1
			benchAllocate(b, g, db, 6)
		})
	}
}

// BenchmarkAblationSplitPolicy compares DRP's published max-cost pop
// rule against the worked example's max-reduction rule (DESIGN.md
// discrepancy note): both quality and cost of the different orders.
func BenchmarkAblationSplitPolicy(b *testing.B) {
	db := workload.PaperDefaults(13).MustGenerate()
	for _, d := range []*core.DRP{core.NewDRP(), core.NewDRPExampleConsistent()} {
		b.Run(d.Policy.String(), func(b *testing.B) {
			benchAllocate(b, d, db, 6)
		})
	}
}

// BenchmarkAblationRefinement isolates what each stage buys: DRP
// alone, CDS from a flat start, and the full DRP-CDS pipeline.
func BenchmarkAblationRefinement(b *testing.B) {
	db := workload.PaperDefaults(17).MustGenerate()
	const k = 6
	b.Run("DRP-only", func(b *testing.B) {
		benchAllocate(b, core.NewDRP(), db, k)
	})
	b.Run("CDS-from-flat", func(b *testing.B) {
		flat := &core.Refined{Base: baseline.NewFlat(), Refiner: core.NewCDS()}
		benchAllocate(b, flat, db, k)
	})
	b.Run("DRP-CDS", func(b *testing.B) {
		benchAllocate(b, core.NewDRPCDS(), db, k)
	})
}

// BenchmarkAblationContiguity bounds the cost of DRP's dimension
// reduction: CONTIG-DP is the exact optimum over contiguous br-order
// partitions, so (CONTIG-DP − GOPT) isolates what contiguity itself
// gives up.
func BenchmarkAblationContiguity(b *testing.B) {
	db := workload.PaperDefaults(19).MustGenerate()
	const k = 6
	for _, alg := range []core.Allocator{
		core.NewDRP(),
		baseline.NewContigDP(),
		baseline.NewGreedy(),
	} {
		b.Run(alg.Name(), func(b *testing.B) {
			benchAllocate(b, alg, db, k)
		})
	}
}

// BenchmarkSimulators measures the closed-form air replay on a
// 2,000-request trace.
func BenchmarkSimulators(b *testing.B) {
	db := workload.Config{N: 60, Theta: 0.8, Phi: 1.5, Seed: 23}.MustGenerate()
	a, err := core.NewDRPCDS().Allocate(db, 5)
	if err != nil {
		b.Fatal(err)
	}
	p, err := broadcast.Build(a, workload.PaperBandwidth, broadcast.ByPosition)
	if err != nil {
		b.Fatal(err)
	}
	trace, err := workload.GenerateTrace(db, workload.TraceConfig{Requests: 2000, Rate: 100, Seed: 29})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("closed-form", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := airsim.Measure(p, trace); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkProgramBuild measures broadcast-program compilation.
func BenchmarkProgramBuild(b *testing.B) {
	db := workload.PaperDefaults(31).MustGenerate()
	a, err := core.NewDRPCDS().Allocate(db, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := broadcast.Build(a, workload.PaperBandwidth, broadcast.ByPosition); err != nil {
			b.Fatal(err)
		}
	}
}
