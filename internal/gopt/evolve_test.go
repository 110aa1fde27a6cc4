package gopt

import (
	"errors"
	"math"
	"runtime"
	"strconv"
	"testing"

	"diversecast/internal/core"
	"diversecast/internal/workload"
)

// evolve runs the GA with one fitness, which keeps no state, shared by
// every worker.
func (g GOPT) evolve(length, alphabet int, fitness func(genes []int) float64) (*result, error) {
	return g.evolveWith(length, alphabet, func() func([]int) float64 { return fitness })
}

// oneMax counts ones: the classic GA smoke problem.
func oneMax(genes []int) float64 {
	var s float64
	for _, g := range genes {
		s += float64(g)
	}
	return s
}

// weightedFitness is a float-heavy deterministic landscape: any
// reordering of evaluation must still reproduce the exact same
// result, bit for bit, because each chromosome's score depends only
// on its own genes.
func weightedFitness(genes []int) float64 {
	var s float64
	for i, g := range genes {
		s += float64(g) * math.Sin(float64(i+1))
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	db := workload.Config{N: 10, Theta: 0.8, Phi: 1, Seed: 1}.MustGenerate()
	tests := []struct {
		name string
		g    GOPT
		k    int
		want error
	}{
		{"zero alphabet", GOPT{}, 0, core.ErrBadChannelCount},
		{"population one", GOPT{PopulationSize: 1}, 2, errBadConfig},
		{"elitism exceeds population", GOPT{PopulationSize: elitism}, 2, errBadConfig},
		{"negative generations", GOPT{Generations: -1}, 2, errBadConfig},
		{"negative stagnation", GOPT{Stagnation: -1}, 2, errBadConfig},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.g.Allocate(db, tt.k); !errors.Is(err, tt.want) {
				t.Fatalf("error = %v, want %v", err, tt.want)
			}
		})
	}
}

// TestWorkersValidation rejects negative pool sizes.
func TestWorkersValidation(t *testing.T) {
	if _, err := (GOPT{Workers: -1}).evolve(4, 2, weightedFitness); !errors.Is(err, errBadConfig) {
		t.Fatalf("Workers=-1: error = %v, want errBadConfig", err)
	}
}

func TestSolvesOneMax(t *testing.T) {
	res, err := GOPT{Generations: 200, Stagnation: 200, Seed: 1}.evolve(30, 2, oneMax)
	if err != nil {
		t.Fatal(err)
	}
	if got := oneMax(res.best); got < 29 {
		t.Fatalf("best fitness %v, want ≈ 30 (OneMax)", got)
	}
	for _, g := range res.best {
		if g != 0 && g != 1 {
			t.Fatalf("gene %d outside alphabet", g)
		}
	}
}

// TestElitismPreservesBest pins the elite carry: topK returns the k
// fittest members, fittest first and the earliest on ties, whatever
// their positions.
func TestElitismPreservesBest(t *testing.T) {
	fitness := []float64{1, 5, -2, 5, 3}
	pop := make([]scored, len(fitness))
	for i, f := range fitness {
		pop[i] = scored{genes: []int{i}, fitness: f}
	}
	got := topK(pop, 3)
	for i, want := range []int{1, 3, 4} {
		if got[i].genes[0] != want {
			t.Fatalf("elite %d is member %d, want %d", i, got[i].genes[0], want)
		}
	}
}

func TestStagnationStopsEarly(t *testing.T) {
	// A constant fitness stagnates immediately.
	res, err := GOPT{Generations: 500, Stagnation: 5, Seed: 7}.evolve(10, 2, func([]int) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if res.generations != 5 {
		t.Fatalf("ran %d generations, want the stagnation limit 5", res.generations)
	}
}

func TestNegativeFitnessLandscape(t *testing.T) {
	// Minimization via negated objective (how GOPT scores cost): the
	// target is the all-zero string.
	neg := func(genes []int) float64 { return -oneMax(genes) }
	res, err := GOPT{Generations: 200, Stagnation: 200, Seed: 15}.evolve(18, 3, neg)
	if err != nil {
		t.Fatal(err)
	}
	if got := neg(res.best); got < -2 {
		t.Fatalf("minimization reached %v, want near 0", got)
	}
}

func TestLengthOneChromosome(t *testing.T) {
	res, err := GOPT{Generations: 30, Seed: 17}.evolve(1, 5, oneMax)
	if err != nil {
		t.Fatal(err)
	}
	if res.best[0] != 4 {
		t.Fatalf("length-1 search best gene %d, want 4", res.best[0])
	}
}

func TestEvaluationsCounted(t *testing.T) {
	res, err := GOPT{PopulationSize: 10, Generations: 5, Seed: 19}.evolve(8, 2, oneMax)
	if err != nil {
		t.Fatal(err)
	}
	// The initial population plus each generation's offspring; elites
	// are not re-evaluated.
	if want := 10 + res.generations*(10-elitism); res.evaluations != want {
		t.Fatalf("evaluations = %d, want %d", res.evaluations, want)
	}
}

// assertSameResult compares two runs bit-for-bit: best chromosome,
// generation and evaluation counts.
func assertSameResult(t *testing.T, a, b *result, label string) {
	t.Helper()
	if a.generations != b.generations || a.evaluations != b.evaluations {
		t.Fatalf("%s: generations/evaluations %d/%d vs %d/%d",
			label, a.generations, a.evaluations, b.generations, b.evaluations)
	}
	if len(a.best) != len(b.best) {
		t.Fatalf("%s: best length %d vs %d", label, len(a.best), len(b.best))
	}
	for i := range a.best {
		if a.best[i] != b.best[i] {
			t.Fatalf("%s: best gene %d: %d vs %d", label, i, a.best[i], b.best[i])
		}
	}
}

// TestEvolveDeterministicForSeed runs the GA loop twice with one seed
// on a 4-letter alphabet and expects the same result bit for bit.
func TestEvolveDeterministicForSeed(t *testing.T) {
	cfg := GOPT{Generations: 50, Seed: 42}
	a, err := cfg.evolve(20, 4, oneMax)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.evolve(20, 4, oneMax)
	if err != nil {
		t.Fatal(err)
	}
	if oneMax(a.best) != oneMax(b.best) {
		t.Fatal("identically-seeded runs reached different fitness")
	}
	assertSameResult(t, a, b, "identically-seeded runs")
}

// TestDeterministicAcrossWorkers is the fabric's contract: the same
// seed yields an identical result whether fitness evaluation runs
// serially, on NumCPU workers, or anywhere in between.
func TestDeterministicAcrossWorkers(t *testing.T) {
	base := GOPT{PopulationSize: 30, Generations: 40, Seed: 99}

	serialCfg := base
	serialCfg.Workers = 1
	serial, err := serialCfg.evolve(40, 6, weightedFitness)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, runtime.NumCPU()} {
		cfg := base
		cfg.Workers = workers
		got, err := cfg.evolve(40, 6, weightedFitness)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, serial, got, "Workers="+strconv.Itoa(workers))
	}
}

// TestDeterministicAcrossGOMAXPROCS pins the stronger property: the
// same seed at GOMAXPROCS=1 and GOMAXPROCS=NumCPU (Workers unset, so
// the pool tracks GOMAXPROCS) yields an identical result.
func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := GOPT{PopulationSize: 24, Generations: 30, Seed: 7}

	prev := runtime.GOMAXPROCS(1)
	wide := prev
	if n := runtime.NumCPU(); n > wide {
		wide = n
	}
	narrow, err := cfg.evolve(32, 5, weightedFitness)
	runtime.GOMAXPROCS(wide)
	if err != nil {
		runtime.GOMAXPROCS(prev)
		t.Fatal(err)
	}
	broad, runErr := cfg.evolve(32, 5, weightedFitness)
	runtime.GOMAXPROCS(prev)
	if runErr != nil {
		t.Fatal(runErr)
	}
	assertSameResult(t, narrow, broad, "GOMAXPROCS 1 vs NumCPU")
}

// TestEvalBatchWritesByIndex exercises the pool directly on a batch
// larger than the worker count. Each worker's fitness counts its calls
// without synchronisation, so the race detector sees any function
// called from two goroutines at once.
func TestEvalBatchWritesByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64, 200} {
		batch := make([]scored, 101)
		for i := range batch {
			batch[i].genes = []int{i}
		}
		calls := make([]int, workers)
		fits := make([]func([]int) float64, workers)
		for w := range fits {
			fits[w] = func(genes []int) float64 {
				calls[w]++
				return float64(genes[0]) * 1.5
			}
		}
		evalBatch(batch, fits)
		total := 0
		for _, c := range calls {
			total += c
		}
		if total != len(batch) {
			t.Fatalf("workers=%d: %d fitness calls for %d members", workers, total, len(batch))
		}
		for i, s := range batch {
			if s.fitness != float64(i)*1.5 {
				t.Fatalf("workers=%d: member %d scored %v", workers, i, s.fitness)
			}
		}
	}
	evalBatch(nil, []func([]int) float64{func([]int) float64 { panic("empty batch scored") }})
}

func BenchmarkEvolveOneMax(b *testing.B) {
	cfg := GOPT{PopulationSize: 50, Generations: 50, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.evolve(60, 6, oneMax); err != nil {
			b.Fatal(err)
		}
	}
}
