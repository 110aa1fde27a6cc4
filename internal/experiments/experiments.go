// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 4): waiting-time sweeps over channel
// count, database size, diversity and skewness (Figures 2–5), and
// execution-time sweeps (Figures 6–7), plus the worked example
// (Tables 2–4). Results are returned as Figure values that render to
// ASCII tables or CSV.
package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"diversecast/internal/baseline"
	"diversecast/internal/core"
	"diversecast/internal/gopt"
	"diversecast/internal/pool"
	"diversecast/internal/stats"
	"diversecast/internal/workload"
)

// Config fixes the non-swept simulation parameters. The paper's Table
// 5 gives ranges; the fixed values used when a figure sweeps one
// parameter are this repository's choice (recorded in EXPERIMENTS.md).
type Config struct {
	// BaseN, BaseK, BasePhi, BaseTheta are the defaults used when a
	// figure does not sweep that parameter.
	BaseN     int
	BaseK     int
	BasePhi   float64
	BaseTheta float64
	// Bandwidth is the channel bandwidth (Table 5: 10 units/s).
	Bandwidth float64
	// Seeds are the replication seeds; reported values are means
	// across them.
	Seeds []int64
	// GOPT search budget (see internal/gopt).
	GOPTPopulation  int
	GOPTGenerations int
	GOPTStagnation  int
	// Workers bounds the sweep worker pool for the quality figures
	// (2–5): the (x-point × seed) grid is embarrassingly parallel and
	// every cell is folded back in deterministic (x, seed) order, so
	// results are identical for any pool size. 0 uses GOMAXPROCS, 1
	// runs serially. The execution-time figures (6–7) ignore it and
	// always run serially — wall-clock measurements on a loaded
	// machine would be noise, not data.
	Workers int
}

// Default returns the full-scale configuration used to regenerate the
// paper's figures.
func Default() Config {
	return Config{
		BaseN:     120,
		BaseK:     6,
		BasePhi:   2.0,
		BaseTheta: 0.8,
		Bandwidth: workload.PaperBandwidth,
		Seeds:     []int64{11, 23, 37, 41, 53},
		// Generous GA budget so GOPT plays its optimum-reference role.
		GOPTPopulation:  120,
		GOPTGenerations: 600,
		GOPTStagnation:  80,
	}
}

// Quick returns a reduced configuration for tests and smoke runs.
func Quick() Config {
	return Config{
		BaseN:           60,
		BaseK:           5,
		BasePhi:         2.0,
		BaseTheta:       0.8,
		Bandwidth:       workload.PaperBandwidth,
		Seeds:           []int64{11, 23},
		GOPTPopulation:  40,
		GOPTGenerations: 150,
		GOPTStagnation:  40,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BaseN < 1 || c.BaseK < 1 || c.BaseK > c.BaseN {
		return fmt.Errorf("experiments: bad base N=%d K=%d", c.BaseN, c.BaseK)
	}
	if !(c.Bandwidth > 0) {
		return fmt.Errorf("experiments: bad bandwidth %v", c.Bandwidth)
	}
	if len(c.Seeds) == 0 {
		return fmt.Errorf("experiments: need at least one seed")
	}
	if c.Workers < 0 {
		return fmt.Errorf("experiments: Workers must be >= 0, got %d", c.Workers)
	}
	return nil
}

// AlgorithmNames is the fixed comparison set of the paper's figures,
// in presentation order.
var AlgorithmNames = []string{"VFK", "DRP", "DRP-CDS", "GOPT"}

// allocators builds one instance of each comparison algorithm; GOPT's
// randomness is derived from the replication seed. gaWorkers bounds
// GOPT's fitness worker pool: quality sweeps pass 0 (use every core —
// the result is identical), timing sweeps pass 1 (serial, so the
// measured wall-clock is single-thread work, comparable across
// machines and runs).
func (c Config) allocators(seed int64, gaWorkers int) map[string]core.Allocator {
	return map[string]core.Allocator{
		"VFK":     baseline.NewVFK(),
		"DRP":     core.NewDRP(),
		"DRP-CDS": core.NewDRPCDS(),
		"GOPT": &gopt.GOPT{
			PopulationSize: c.GOPTPopulation,
			Generations:    c.GOPTGenerations,
			Stagnation:     c.GOPTStagnation,
			Seed:           seed,
			Workers:        gaWorkers,
		},
	}
}

// Row is one swept point: X is the swept parameter value and Values
// maps algorithm name to the measured mean (W_b seconds for Figures
// 2–5, milliseconds for Figures 6–7).
type Row struct {
	X      float64
	Values map[string]float64
}

// Figure is one regenerated evaluation figure.
type Figure struct {
	ID         string
	Title      string
	XLabel     string
	YLabel     string
	Algorithms []string
	Rows       []Row
}

// sweepWait runs the four algorithms over the given per-point
// workload configurations and records mean analytical waiting time
// (Eq. 2) across seeds. The (x-point × seed) grid is evaluated on a
// bounded worker pool; each cell writes its own slot and the fold
// into per-x accumulators happens serially in (x, seed) order, so the
// figure is bit-identical to a fully serial sweep.
func (c Config) sweepWait(id, title, xlabel string, xs []float64, mk func(x float64, seed int64) (workload.Config, int)) (*Figure, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: id, Title: title, XLabel: xlabel,
		YLabel:     "average waiting time (s)",
		Algorithms: AlgorithmNames,
	}

	type cell struct {
		values map[string]float64
		err    error
	}
	cells := make([]cell, len(xs)*len(c.Seeds))
	workers := c.sweepWorkers(len(cells))
	// Parallelize at the outermost level only: with several cells per
	// core in flight, letting each GOPT also fan out would just
	// oversubscribe the scheduler. A serial sweep (workers == 1)
	// instead hands GOPT the whole machine.
	gaWorkers := 1
	if workers == 1 {
		gaWorkers = 0
	}
	runCells(workers, cells, func(idx int) {
		xi, si := idx/len(c.Seeds), idx%len(c.Seeds)
		x, seed := xs[xi], c.Seeds[si]
		wcfg, k := mk(x, seed)
		db, err := wcfg.Generate()
		if err != nil {
			cells[idx].err = fmt.Errorf("experiments: %s at %v: %w", id, x, err)
			return
		}
		algs := c.allocators(seed, gaWorkers)
		values := make(map[string]float64, len(AlgorithmNames))
		for _, name := range AlgorithmNames {
			a, err := algs[name].Allocate(db, k)
			if err != nil {
				cells[idx].err = fmt.Errorf("experiments: %s at %v: %s: %w", id, x, name, err)
				return
			}
			values[name] = core.WaitingTime(a, c.Bandwidth)
		}
		cells[idx].values = values
	})

	for xi, x := range xs {
		accs := make(map[string]*stats.Accumulator, len(AlgorithmNames))
		for _, name := range AlgorithmNames {
			accs[name] = &stats.Accumulator{}
		}
		for si := range c.Seeds {
			cl := cells[xi*len(c.Seeds)+si]
			if cl.err != nil {
				return nil, cl.err
			}
			for _, name := range AlgorithmNames {
				accs[name].Add(cl.values[name])
			}
		}
		row := Row{X: x, Values: make(map[string]float64, len(accs))}
		for name, acc := range accs {
			row.Values[name] = acc.Mean()
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}

// sweepWorkers resolves the configured pool size against the grid.
func (c Config) sweepWorkers(cellCount int) int {
	workers := c.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cellCount {
		workers = cellCount
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runCells executes run(i) for every cell index on the shared
// by-index worker pool (internal/pool). Cells only write their own
// slot, so any width yields the same cells.
func runCells[T any](workers int, cells []T, run func(idx int)) {
	sweepWorkers.Set(int64(workers))
	if workers <= 1 {
		for i := range cells {
			run(i)
		}
		return
	}
	sweepQueueDepth.Set(int64(len(cells)))
	pool.Run(workers, len(cells), func(i int) {
		run(i)
		sweepQueueDepth.Dec()
	})
}

// Figure2 sweeps the channel count K from 4 to 10 (paper Figure 2).
func Figure2(c Config) (*Figure, error) {
	xs := []float64{4, 5, 6, 7, 8, 9, 10}
	return c.sweepWait("fig2", "channel number vs. average waiting time", "K", xs,
		func(x float64, seed int64) (workload.Config, int) {
			return workload.Config{N: c.BaseN, Theta: c.BaseTheta, Phi: c.BasePhi, Seed: seed}, int(x)
		})
}

// Figure3 sweeps the database size N from 60 to 180 (paper Figure 3).
func Figure3(c Config) (*Figure, error) {
	xs := []float64{60, 90, 120, 150, 180}
	return c.sweepWait("fig3", "number of broadcast items vs. average waiting time", "N", xs,
		func(x float64, seed int64) (workload.Config, int) {
			return workload.Config{N: int(x), Theta: c.BaseTheta, Phi: c.BasePhi, Seed: seed}, c.BaseK
		})
}

// Figure4 sweeps the diversity parameter Φ from 0 to 3 (paper
// Figure 4).
func Figure4(c Config) (*Figure, error) {
	xs := []float64{0, 0.5, 1, 1.5, 2, 2.5, 3}
	return c.sweepWait("fig4", "diversity vs. average waiting time", "Phi", xs,
		func(x float64, seed int64) (workload.Config, int) {
			return workload.Config{N: c.BaseN, Theta: c.BaseTheta, Phi: x, Seed: seed}, c.BaseK
		})
}

// Figure5 sweeps the skewness parameter θ from 0.4 to 1.6 (paper
// Figure 5).
func Figure5(c Config) (*Figure, error) {
	xs := []float64{0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6}
	return c.sweepWait("fig5", "skewness vs. average waiting time", "Theta", xs,
		func(x float64, seed int64) (workload.Config, int) {
			return workload.Config{N: c.BaseN, Theta: x, Phi: c.BasePhi, Seed: seed}, c.BaseK
		})
}

// TimedAlgorithms is the comparison set of the complexity experiments
// (the paper's Figures 6–7 plot DRP-CDS against GOPT).
var TimedAlgorithms = []string{"DRP-CDS", "GOPT"}

// timingRepeats is how many times sweepTime runs each (seed,
// algorithm) cell; the cell's time is the fastest run.
const timingRepeats = 3

// sweepTime measures mean wall-clock allocation time in milliseconds.
//
// Timing sweeps are pinned serial regardless of Config.Workers, and
// GOPT's own worker pool is pinned to 1: Figures 6–7 plot execution
// time, and concurrent cells would contend for cores and inflate each
// other's wall-clock. Only the quality figures parallelize. Each
// (seed, algorithm) cell is the minimum of timingRepeats runs, so a
// burst of load from another process on the host inflates one run,
// not the cell.
func (c Config) sweepTime(id, title, xlabel string, xs []float64, mk func(x float64, seed int64) (workload.Config, int)) (*Figure, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: id, Title: title, XLabel: xlabel,
		YLabel:     "execution time (ms)",
		Algorithms: TimedAlgorithms,
	}
	for _, x := range xs {
		accs := make(map[string]*stats.Accumulator, len(TimedAlgorithms))
		for _, name := range TimedAlgorithms {
			accs[name] = &stats.Accumulator{}
		}
		for _, seed := range c.Seeds {
			wcfg, k := mk(x, seed)
			db, err := wcfg.Generate()
			if err != nil {
				return nil, fmt.Errorf("experiments: %s at %v: %w", id, x, err)
			}
			algs := c.allocators(seed, 1)
			for _, name := range TimedAlgorithms {
				best := math.Inf(1)
				for r := 0; r < timingRepeats; r++ {
					start := time.Now()
					if _, err := algs[name].Allocate(db, k); err != nil {
						return nil, fmt.Errorf("experiments: %s at %v: %s: %w", id, x, name, err)
					}
					best = min(best, float64(time.Since(start))/float64(time.Millisecond))
				}
				accs[name].Add(best)
			}
		}
		row := Row{X: x, Values: make(map[string]float64, len(accs))}
		for name, acc := range accs {
			row.Values[name] = acc.Mean()
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}

// Figure6 sweeps K and reports execution time (paper Figure 6).
func Figure6(c Config) (*Figure, error) {
	xs := []float64{4, 5, 6, 7, 8, 9, 10}
	return c.sweepTime("fig6", "channel number vs. execution time", "K", xs,
		func(x float64, seed int64) (workload.Config, int) {
			return workload.Config{N: c.BaseN, Theta: c.BaseTheta, Phi: c.BasePhi, Seed: seed}, int(x)
		})
}

// Figure7 sweeps N and reports execution time (paper Figure 7).
func Figure7(c Config) (*Figure, error) {
	xs := []float64{60, 90, 120, 150, 180}
	return c.sweepTime("fig7", "number of broadcast items vs. execution time", "N", xs,
		func(x float64, seed int64) (workload.Config, int) {
			return workload.Config{N: int(x), Theta: c.BaseTheta, Phi: c.BasePhi, Seed: seed}, c.BaseK
		})
}

// Run regenerates one figure by id ("fig2".."fig7").
func Run(id string, c Config) (*Figure, error) {
	switch id {
	case "fig2":
		return Figure2(c)
	case "fig3":
		return Figure3(c)
	case "fig4":
		return Figure4(c)
	case "fig5":
		return Figure5(c)
	case "fig6":
		return Figure6(c)
	case "fig7":
		return Figure7(c)
	case "abl1":
		return Ablation1(c)
	case "abl2":
		return Ablation2(c)
	case "abl3":
		return Ablation3(c)
	default:
		return nil, fmt.Errorf("experiments: unknown figure %q (have fig2..fig7, abl1..abl3)", id)
	}
}

// FigureIDs lists the regenerable figures in paper order.
func FigureIDs() []string { return []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7"} }
