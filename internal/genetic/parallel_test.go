package genetic

import (
	"math"
	"runtime"
	"strconv"
	"testing"
)

// weightedFitness is a float-heavy deterministic landscape: any
// reordering of evaluation must still reproduce the exact same
// Result, bit for bit, because each chromosome's score depends only
// on its own genes.
func weightedFitness(genes []int) float64 {
	var s float64
	for i, g := range genes {
		s += float64(g) * math.Sin(float64(i+1))
	}
	return s
}

// assertSameResult compares two runs bit-for-bit: best chromosome,
// best fitness, full fitness history, generation and evaluation
// counts.
func assertSameResult(t *testing.T, a, b *Result, label string) {
	t.Helper()
	if a.BestFitness != b.BestFitness {
		t.Fatalf("%s: BestFitness %v vs %v", label, a.BestFitness, b.BestFitness)
	}
	if a.Generations != b.Generations || a.Evaluations != b.Evaluations {
		t.Fatalf("%s: Generations/Evaluations %d/%d vs %d/%d",
			label, a.Generations, a.Evaluations, b.Generations, b.Evaluations)
	}
	if len(a.Best) != len(b.Best) {
		t.Fatalf("%s: Best length %d vs %d", label, len(a.Best), len(b.Best))
	}
	for i := range a.Best {
		if a.Best[i] != b.Best[i] {
			t.Fatalf("%s: Best gene %d: %d vs %d", label, i, a.Best[i], b.Best[i])
		}
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("%s: History length %d vs %d", label, len(a.History), len(b.History))
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("%s: History[%d] bits differ: %v vs %v", label, i, a.History[i], b.History[i])
		}
	}
}

// TestDeterministicAcrossWorkers is the fabric's contract: the same
// seed yields a byte-identical Result whether fitness evaluation runs
// serially, on NumCPU workers, or anywhere in between.
func TestDeterministicAcrossWorkers(t *testing.T) {
	base := Config{Length: 40, Alphabet: 6, PopulationSize: 30, Generations: 40, Seed: 99}

	serialCfg := base
	serialCfg.Workers = 1
	serial, err := Run(serialCfg, weightedFitness)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 3, runtime.NumCPU()} {
		cfg := base
		cfg.Workers = workers
		got, err := Run(cfg, weightedFitness)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResult(t, serial, got, "Workers="+strconv.Itoa(workers))
	}
}

// TestDeterministicAcrossGOMAXPROCS pins the stronger property the
// issue asks for: the same seed at GOMAXPROCS=1 and GOMAXPROCS=NumCPU
// (Workers unset, so the pool tracks GOMAXPROCS) yields a
// byte-identical best chromosome and fitness history.
func TestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := Config{Length: 32, Alphabet: 5, PopulationSize: 24, Generations: 30, Seed: 7}

	prev := runtime.GOMAXPROCS(1)
	wide := prev
	if n := runtime.NumCPU(); n > wide {
		wide = n
	}
	narrow, err := Run(cfg, weightedFitness)
	runtime.GOMAXPROCS(wide)
	if err != nil {
		runtime.GOMAXPROCS(prev)
		t.Fatal(err)
	}
	broad, runErr := Run(cfg, weightedFitness)
	runtime.GOMAXPROCS(prev)
	if runErr != nil {
		t.Fatal(runErr)
	}
	assertSameResult(t, narrow, broad, "GOMAXPROCS 1 vs NumCPU")
}

// TestWorkersValidation rejects negative pool sizes.
func TestWorkersValidation(t *testing.T) {
	_, err := Run(Config{Length: 4, Alphabet: 2, Workers: -1}, weightedFitness)
	if err == nil {
		t.Fatal("Workers=-1 accepted")
	}
}

// TestEvalBatchWritesByIndex exercises the pool directly on a batch
// larger than the worker count.
func TestEvalBatchWritesByIndex(t *testing.T) {
	batch := make([][]int, 101)
	for i := range batch {
		batch[i] = []int{i}
	}
	fit := func(genes []int) float64 { return float64(genes[0]) * 1.5 }
	for _, workers := range []int{1, 2, 7, 64, 200} {
		out := evalBatch(batch, fit, workers)
		for i := range out {
			if out[i] != float64(i)*1.5 {
				t.Fatalf("workers=%d: out[%d] = %v", workers, i, out[i])
			}
		}
	}
	if got := evalBatch(nil, fit, 4); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}
