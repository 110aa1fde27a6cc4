// Package gopt implements GOPT, the paper's genetic-algorithm
// comparator that serves as the (sub)global-optimum reference in every
// figure of the evaluation. A chromosome is the length-N channel
// assignment vector with gene alphabet {0..K-1}; fitness is the
// negated grouping cost.
//
// The paper omits GOPT's construction "for interest of space" and
// notes that, being GA-based, its result "is still viewed as a
// suboptimum". The search here is a classic generational GA in the
// style of Holland (1975) and Goldberg (1989), the paper's references,
// with fixed operators: tournament selection of 3, one-point crossover
// at rate 0.9, per-gene mutation at 1/N, and 2 elites. To let GOPT play
// its optimum-reference role reliably at laptop budgets, CDS polishes
// the best chromosome found (a memetic step, documented in
// EXPERIMENTS.md).
package gopt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"diversecast/internal/core"
	"diversecast/internal/obs"
	"diversecast/internal/pool"
)

// The search's fixed operators.
const (
	tournamentSize = 3
	crossoverRate  = 0.9
	elitism        = 2
)

// GOPT is the genetic channel allocator. The zero value uses the
// defaults below; it implements core.Allocator.
type GOPT struct {
	// PopulationSize is the number of chromosomes per generation
	// (default 100; more than the 2 elites).
	PopulationSize int
	// Generations bounds the number of generations (default 300).
	Generations int
	// Stagnation stops the search after this many generations without
	// improvement of the best fitness (default 60).
	Stagnation int
	// Seed drives all randomness; runs are reproducible.
	Seed int64
	// Workers bounds the fitness-evaluation worker pool: 0 uses
	// runtime.GOMAXPROCS(0), 1 evaluates serially on the calling
	// goroutine. Chromosome generation stays serial on one rng and
	// scores are written back by population index, so the allocation
	// is identical for a given Seed whatever Workers or GOMAXPROCS;
	// only wall-clock changes. The execution-time experiments
	// (Figures 6–7) pin 1 so their single-thread timing curves stay
	// meaningful.
	Workers int
}

var _ core.Allocator = (*GOPT)(nil)

// NewReference returns the configuration the experiment harness uses
// as the optimum reference: a generously budgeted search.
func NewReference(seed int64) *GOPT {
	return &GOPT{
		PopulationSize: 120,
		Generations:    600,
		Stagnation:     80,
		Seed:           seed,
	}
}

// Name implements core.Allocator.
func (*GOPT) Name() string { return "GOPT" }

// Allocate implements core.Allocator: the GA's best chromosome,
// polished by CDS.
func (g *GOPT) Allocate(db *core.Database, k int) (*core.Allocation, error) {
	res, err := g.search(db, k)
	if err != nil {
		return nil, err
	}
	a, err := core.NewAllocation(db, k, res.best)
	if err != nil {
		return nil, fmt.Errorf("gopt: best chromosome invalid: %w", err)
	}
	if a, err = core.NewCDS().Refine(a); err != nil {
		return nil, fmt.Errorf("gopt: polishing: %w", err)
	}
	return a, nil
}

// search runs the GA on db with k channels; its best chromosome is the
// unpolished allocation.
func (g *GOPT) search(db *core.Database, k int) (*result, error) {
	n := db.Len()
	if k < 1 || k > n {
		return nil, fmt.Errorf("gopt: %w: K=%d, N=%d", core.ErrBadChannelCount, k, n)
	}
	// Fitness: the negated grouping cost, summed from the chromosome
	// in O(N) into one worker's K frequency and K size sums.
	newFitness := func() func([]int) float64 {
		f, z := make([]float64, k), make([]float64, k)
		return func(genes []int) float64 {
			clear(f)
			clear(z)
			for pos, c := range genes {
				it := db.Item(pos)
				f[c] += it.Freq
				z[c] += it.Size
			}
			var cost float64
			for c := 0; c < k; c++ {
				cost += f[c] * z[c]
			}
			return -cost
		}
	}
	res, err := g.evolveWith(n, k, newFitness)
	if err != nil {
		return nil, fmt.Errorf("gopt: %w", err)
	}
	return res, nil
}

// errBadConfig wraps configuration validation failures.
var errBadConfig = errors.New("bad config")

// withDefaults fills the zero fields and validates the rest.
func (g GOPT) withDefaults() (GOPT, error) {
	if g.PopulationSize == 0 {
		g.PopulationSize = 100
	}
	if g.PopulationSize <= elitism {
		return g, fmt.Errorf("%w: PopulationSize=%d, need more than %d elites", errBadConfig, g.PopulationSize, elitism)
	}
	if g.Generations == 0 {
		g.Generations = 300
	}
	if g.Generations < 1 {
		return g, fmt.Errorf("%w: Generations=%d", errBadConfig, g.Generations)
	}
	if g.Stagnation == 0 {
		g.Stagnation = 60
	}
	if g.Stagnation < 0 {
		return g, fmt.Errorf("%w: Stagnation=%d", errBadConfig, g.Stagnation)
	}
	if g.Workers < 0 {
		return g, fmt.Errorf("%w: Workers=%d", errBadConfig, g.Workers)
	}
	if g.Workers == 0 {
		g.Workers = runtime.GOMAXPROCS(0)
	}
	return g, nil
}

// result is the outcome of one search: the fittest chromosome found
// across all generations, the generations run (fewer than configured
// when Stagnation stops the search) and the fitness calls made.
type result struct {
	best        []int
	generations int
	evaluations int
}

type scored struct {
	genes   []int
	fitness float64
}

// evolveWith maximizes a fitness over chromosomes of the given length
// whose genes lie in [0, alphabet). newFitness is called once per
// worker of the pool; each function it returns scores chromosomes on
// one goroutine at a time, so it may keep scratch, but its score must
// be a pure function of the genes.
func (g GOPT) evolveWith(length, alphabet int, newFitness func() func(genes []int) float64) (*result, error) {
	g, err := g.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(g.Seed))
	mutationRate := 1 / float64(length)
	res := &result{}
	fits := make([]func([]int) float64, g.Workers)
	for w := range fits {
		fits[w] = newFitness()
	}
	evaluate := func(batch []scored) {
		res.evaluations += len(batch)
		evalBatch(batch, fits)
	}

	// Two populations, double-buffered: each generation breeds into
	// the spare one, so no chromosome is allocated after these. The
	// initial population is random; generation is serial on the single
	// rng, and only evaluation fans out.
	pop, next := newPopulation(g.PopulationSize, length), newPopulation(g.PopulationSize, length)
	for _, s := range pop {
		for j := range s.genes {
			s.genes[j] = rng.Intn(alphabet)
		}
	}
	evaluate(pop)

	best := scored{genes: make([]int, length), fitness: math.Inf(-1)}
	updateBest := func() bool {
		improved := false
		for _, s := range pop {
			if s.fitness > best.fitness {
				copy(best.genes, s.genes)
				best.fitness = s.fitness
				improved = true
			}
		}
		return improved
	}
	updateBest()

	// odd takes the second child of the last pair when the offspring
	// count is odd: it is bred, so every draw happens, and dropped.
	odd := make([]int, length)
	stagnant := 0
	for gen := 0; gen < g.Generations; gen++ {
		// Elitism: carry the current top chromosomes unchanged (their
		// fitness is known; they are not re-evaluated).
		for i, e := range topK(pop, elitism) {
			copy(next[i].genes, e.genes)
			next[i].fitness = e.fitness
		}

		// Breed the full offspring batch serially on the rng —
		// selection only reads the previous generation's scores, so
		// no offspring fitness is needed mid-generation — then fan
		// the batch out to the worker pool.
		for i := elitism; i < len(next); i += 2 {
			c1, c2 := next[i].genes, odd
			if i+1 < len(next) {
				c2 = next[i+1].genes
			}
			copy(c1, tournament(pop, rng).genes)
			copy(c2, tournament(pop, rng).genes)
			if rng.Float64() < crossoverRate && length > 1 {
				// One-point crossover: swap the tails after a random cut.
				cut := 1 + rng.Intn(length-1)
				for j := cut; j < length; j++ {
					c1[j], c2[j] = c2[j], c1[j]
				}
			}
			mutate(c1, alphabet, mutationRate, rng)
			mutate(c2, alphabet, mutationRate, rng)
		}
		evaluate(next[elitism:])
		pop, next = next, pop
		res.generations = gen + 1

		if updateBest() {
			stagnant = 0
		} else {
			stagnant++
		}
		if stagnant >= g.Stagnation {
			break
		}
	}

	res.best = best.genes
	return res, nil
}

// newPopulation returns size members with chromosomes of the given
// length, carved from one backing array.
func newPopulation(size, length int) []scored {
	genes := make([]int, size*length)
	pop := make([]scored, size)
	for i := range pop {
		pop[i].genes = genes[i*length : (i+1)*length : (i+1)*length]
	}
	return pop
}

// Worker-pool fabric instrumentation on the process-wide registry:
// how wide the fitness-evaluation pool currently runs and how much of
// the in-flight batch is still queued. Handles are resolved once at
// package init; the pool pays one atomic per event.
var (
	evalWorkers = obs.Default().Gauge("genetic_eval_workers",
		"fitness worker-pool size of the most recent evaluation batch")
	evalQueueDepth = obs.Default().Gauge("genetic_eval_queue_depth",
		"fitness evaluations of the in-flight batch not yet completed")
)

// evalBatch scores every member of batch in place over the shared
// worker pool (internal/pool), one fitness function per worker: worker
// w scores members w, w+W, w+2W, … with fits[w], so each function runs
// on one goroutine at a time, and each score lands in its own member,
// so the outcome is independent of scheduling and pool width.
func evalBatch(batch []scored, fits []func([]int) float64) {
	workers := min(len(fits), len(batch))
	if workers <= 1 {
		evalWorkers.Set(1)
		for i := range batch {
			batch[i].fitness = fits[0](batch[i].genes)
		}
		return
	}
	evalWorkers.Set(int64(workers))
	evalQueueDepth.Set(int64(len(batch)))
	pool.Run(workers, workers, func(w int) {
		for i := w; i < len(batch); i += workers {
			batch[i].fitness = fits[w](batch[i].genes)
			evalQueueDepth.Dec()
		}
	})
}

// topK returns the k fittest population members (k small; simple
// selection sort on a copy).
func topK(pop []scored, k int) []scored {
	out := make([]scored, 0, k)
	used := make([]bool, len(pop))
	for len(out) < k {
		bestIdx := -1
		for i, s := range pop {
			if used[i] {
				continue
			}
			if bestIdx < 0 || s.fitness > pop[bestIdx].fitness {
				bestIdx = i
			}
		}
		used[bestIdx] = true
		out = append(out, pop[bestIdx])
	}
	return out
}

// tournament draws tournamentSize members uniformly, with replacement,
// and returns the fittest (the first drawn on ties).
func tournament(pop []scored, rng *rand.Rand) scored {
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < tournamentSize; i++ {
		if c := pop[rng.Intn(len(pop))]; c.fitness > best.fitness {
			best = c
		}
	}
	return best
}

// mutate reassigns each gene to a uniform draw with probability rate.
func mutate(genes []int, alphabet int, rate float64, rng *rand.Rand) {
	for i := range genes {
		if rng.Float64() < rate {
			genes[i] = rng.Intn(alphabet)
		}
	}
}
