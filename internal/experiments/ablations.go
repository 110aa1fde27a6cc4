package experiments

import (
	"fmt"

	"diversecast/internal/adapt"
	"diversecast/internal/baseline"
	"diversecast/internal/core"
	"diversecast/internal/stats"
	"diversecast/internal/workload"
)

// This file holds experiments beyond the paper: ablations that
// attribute DRP-CDS's quality to its parts, and an adaptation study
// for the incremental replanning extension (internal/adapt).

// AblationIDs lists the extra experiments, regenerable via Run like
// the paper figures.
func AblationIDs() []string { return []string{"abl1", "abl2"} }

// ablationAllocators is the comparison set of abl1: the paper's
// pipeline stages against the contiguity upper bound and the naive
// baselines.
var ablationAllocators = []string{"FLAT", "GREEDY", "DRP", "CONTIG-DP", "DRP-CDS"}

// Ablation1 decomposes the DRP-CDS design over the diversity sweep:
// FLAT (ignore everything), GREEDY (non-contiguous list scheduling),
// DRP (greedy contiguous splits), CONTIG-DP (optimal contiguous
// partition — the ceiling of DRP's search space) and DRP-CDS (escapes
// contiguity via local moves).
func Ablation1(c Config) (*Figure, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	algs := map[string]core.Allocator{
		"FLAT":      baseline.NewFlat(),
		"GREEDY":    baseline.NewGreedy(),
		"DRP":       core.NewDRP(),
		"CONTIG-DP": baseline.NewContigDP(),
		"DRP-CDS":   core.NewDRPCDS(),
	}
	fig := &Figure{
		ID:         "abl1",
		Title:      "ablation: allocator families vs. diversity",
		XLabel:     "Phi",
		YLabel:     "average waiting time (s)",
		Algorithms: ablationAllocators,
	}
	for _, phi := range []float64{0, 1, 2, 3} {
		accs := make(map[string]*stats.Accumulator, len(algs))
		for name := range algs {
			accs[name] = &stats.Accumulator{}
		}
		for _, seed := range c.Seeds {
			db, err := (workload.Config{N: c.BaseN, Theta: c.BaseTheta, Phi: phi, Seed: seed}).Generate()
			if err != nil {
				return nil, fmt.Errorf("experiments: abl1 at %v: %w", phi, err)
			}
			for name, alg := range algs {
				a, err := alg.Allocate(db, c.BaseK)
				if err != nil {
					return nil, fmt.Errorf("experiments: abl1 %s: %w", name, err)
				}
				accs[name].Add(core.WaitingTime(a, c.Bandwidth))
			}
		}
		row := Row{X: phi, Values: make(map[string]float64, len(accs))}
		for name, acc := range accs {
			row.Values[name] = acc.Mean()
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}

// Ablation2 evaluates the adaptation extension over drift epochs: the
// waiting time (under the drifted truth) of a frozen allocation, of
// CDS-based incremental replanning, and of a full DRP-CDS rebuild —
// plus the churn (moved items) of the latter two as separate series.
func Ablation2(c Config) (*Figure, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	const epochs = 6
	names := []string{"FROZEN", "REPLAN", "REBUILD", "REPLAN-moved", "REBUILD-moved"}
	fig := &Figure{
		ID:         "abl2",
		Title:      "adaptation: waiting time and churn under popularity drift",
		XLabel:     "epoch",
		YLabel:     "average waiting time (s) / moved items",
		Algorithms: names,
	}

	accs := make([]map[string]*stats.Accumulator, epochs)
	for e := range accs {
		accs[e] = make(map[string]*stats.Accumulator, len(names))
		for _, n := range names {
			accs[e][n] = &stats.Accumulator{}
		}
	}

	for _, seed := range c.Seeds {
		db, err := (workload.Config{N: c.BaseN, Theta: c.BaseTheta, Phi: c.BasePhi, Seed: seed}).Generate()
		if err != nil {
			return nil, err
		}
		frozen, err := core.NewDRPCDS().Allocate(db, c.BaseK)
		if err != nil {
			return nil, err
		}
		replanned, rebuilt := frozen, frozen
		truth := db
		for e := 0; e < epochs; e++ {
			truth, err = workload.Drift(truth, 0.3, seed*100+int64(e))
			if err != nil {
				return nil, err
			}
			var replanChurn adapt.Churn
			replanned, replanChurn, err = adapt.Replan(replanned, truth)
			if err != nil {
				return nil, err
			}
			prevRebuilt := rebuilt
			rebuilt, err = core.NewDRPCDS().Allocate(truth, c.BaseK)
			if err != nil {
				return nil, err
			}
			rebuildChurn := adapt.ChurnBetween(prevRebuilt, rebuilt)

			frozenOnTruth, err := core.NewAllocation(truth, c.BaseK, frozen.Assignment())
			if err != nil {
				return nil, err
			}
			accs[e]["FROZEN"].Add(core.WaitingTime(frozenOnTruth, c.Bandwidth))
			accs[e]["REPLAN"].Add(core.WaitingTime(replanned, c.Bandwidth))
			accs[e]["REBUILD"].Add(core.WaitingTime(rebuilt, c.Bandwidth))
			accs[e]["REPLAN-moved"].Add(float64(replanChurn.Moved))
			accs[e]["REBUILD-moved"].Add(float64(rebuildChurn.Moved))
		}
	}
	for e := 0; e < epochs; e++ {
		row := Row{X: float64(e + 1), Values: make(map[string]float64, len(names))}
		for _, n := range names {
			row.Values[n] = accs[e][n].Mean()
		}
		fig.Rows = append(fig.Rows, row)
	}
	return fig, nil
}
