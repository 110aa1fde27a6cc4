package gopt

import (
	"math"
	"slices"
	"testing"

	"diversecast/internal/baseline"
	"diversecast/internal/core"
	"diversecast/internal/workload"
)

func TestRejectsBadK(t *testing.T) {
	db := workload.Config{N: 10, Theta: 0.8, Phi: 1, Seed: 1}.MustGenerate()
	for _, k := range []int{0, -1, 11} {
		if _, err := (&GOPT{Seed: 1}).Allocate(db, k); err == nil {
			t.Errorf("K=%d should fail", k)
		}
	}
}

func TestProducesValidAllocation(t *testing.T) {
	db := workload.Config{N: 30, Theta: 0.8, Phi: 2, Seed: 2}.MustGenerate()
	g := &GOPT{PopulationSize: 30, Generations: 40, Seed: 3}
	a, err := g.Allocate(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.K() != 4 {
		t.Fatalf("K = %d, want 4", a.K())
	}
}

func TestDeterministicForSeed(t *testing.T) {
	db := workload.Config{N: 25, Theta: 1.0, Phi: 1.5, Seed: 4}.MustGenerate()
	g := &GOPT{PopulationSize: 20, Generations: 30, Seed: 5}
	a, err := g.Allocate(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Allocate(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("identically-seeded GOPT runs differ")
	}
}

func TestFindsOptimumOnTinyInstance(t *testing.T) {
	// On a tiny instance the exact optimum is known; the reference
	// configuration must land on it.
	db := workload.Config{N: 9, Theta: 0.9, Phi: 2, Seed: 6}.MustGenerate()
	opt, err := baseline.NewExhaustive().Allocate(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewReference(7).Allocate(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := core.Cost(a), core.Cost(opt); math.Abs(got-want) > 1e-9 {
		t.Fatalf("GOPT cost %v, exhaustive optimum %v", got, want)
	}
}

func TestPolishNeverHurts(t *testing.T) {
	db := workload.Config{N: 40, Theta: 0.8, Phi: 2, Seed: 8}.MustGenerate()
	g := &GOPT{PopulationSize: 30, Generations: 50, Seed: 9}
	res, err := g.search(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := core.NewAllocation(db, 5, res.best)
	if err != nil {
		t.Fatal(err)
	}
	polished, err := g.Allocate(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	if core.Cost(polished) > core.Cost(raw)+1e-9 {
		t.Fatalf("polish increased cost: %v → %v", core.Cost(raw), core.Cost(polished))
	}
}

// TestGoldenDrawOrder pins the search's random-draw order to values
// recorded from the GA before its operators became fixed code: the
// experiment harness's Quick budget on its base database, and the
// reference configuration on the paper defaults. Any reordering of a
// draw (initial genes, tournament picks, the crossover coin and cut,
// mutation coins) changes these, while a run compared with itself
// cannot see it.
func TestGoldenDrawOrder(t *testing.T) {
	db := workload.Config{N: 60, Theta: 0.8, Phi: 2, Seed: 11}.MustGenerate()
	res, err := (&GOPT{PopulationSize: 40, Generations: 150, Stagnation: 40, Seed: 11}).search(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantBest := []int{2, 3, 3, 2, 3, 2, 0, 1, 3, 2, 2, 2, 0, 0, 3, 2, 4, 1, 2, 0, 0, 0, 4, 2, 2, 0, 2, 2, 0, 3, 0, 0, 2, 1, 1, 0, 4, 1, 3, 2, 3, 2, 2, 1, 1, 2, 0, 3, 1, 2, 4, 2, 4, 3, 1, 1, 4, 4, 4, 2}
	if !slices.Equal(res.best, wantBest) || res.generations != 150 || res.evaluations != 5740 {
		t.Fatalf("Quick search: best %v after %d generations and %d evaluations, want %v after 150 and 5740",
			res.best, res.generations, res.evaluations, wantBest)
	}

	a, err := NewReference(11).Allocate(workload.PaperDefaults(11).MustGenerate(), 6)
	if err != nil {
		t.Fatal(err)
	}
	wantRef := []int{1, 5, 0, 1, 5, 1, 0, 3, 1, 1, 1, 1, 0, 5, 1, 1, 3, 4, 1, 5, 3, 5, 4, 1, 1, 5, 1, 1, 0, 5, 0, 0, 1, 3, 4, 0, 2, 3, 5, 1, 1, 1, 1, 3, 4, 1, 5, 5, 0, 1, 4, 1, 4, 5, 3, 0, 2, 4, 2, 1, 4, 3, 5, 3, 1, 0, 4, 1, 0, 1, 3, 2, 2, 3, 4, 5, 4, 4, 2, 0, 2, 2, 3, 5, 5, 0, 4, 2, 5, 3, 3, 1, 2, 0, 1, 0, 2, 0, 3, 0, 2, 3, 2, 5, 5, 0, 5, 5, 2, 4, 2, 5, 5, 4, 5, 5, 3, 0, 0, 1}
	if got := a.Assignment(); !slices.Equal(got, wantRef) {
		t.Fatalf("reference allocation %v, want %v", got, wantRef)
	}
}

func TestReferenceBeatsVFKOnDiverseData(t *testing.T) {
	// The headline qualitative result, in miniature: on a diverse
	// database the optimum reference clearly beats the
	// conventional-environment allocator.
	db := workload.Config{N: 40, Theta: 0.8, Phi: 2.5, Seed: 14}.MustGenerate()
	vfk, err := baseline.NewVFK().Allocate(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewReference(15).Allocate(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	if core.Cost(ref) >= core.Cost(vfk) {
		t.Fatalf("GOPT (%v) did not beat VFK (%v) on diverse data", core.Cost(ref), core.Cost(vfk))
	}
}
