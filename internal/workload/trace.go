package workload

import (
	"fmt"
	"math/rand"

	"diversecast/internal/core"
	"diversecast/internal/dist"
)

// Request is one client data request: at Time (seconds since
// simulation start) a client starts waiting for the item at database
// position Pos.
type Request struct {
	Time float64
	Pos  int
}

// TraceConfig describes a synthetic client request trace.
type TraceConfig struct {
	// Requests is the number of requests to generate.
	Requests int
	// Rate is the aggregate request arrival rate (requests/second)
	// of the Poisson arrival process.
	Rate float64
	// Seed makes the trace deterministic.
	Seed int64
}

// GenerateTrace draws Requests item choices from the database's access
// frequencies (alias method) with Poisson arrivals. The returned
// slice is sorted by time.
func GenerateTrace(db *core.Database, cfg TraceConfig) ([]Request, error) {
	if cfg.Requests < 0 {
		return nil, fmt.Errorf("workload: negative request count %d", cfg.Requests)
	}
	weights := make([]float64, db.Len())
	for i := range weights {
		weights[i] = db.Item(i).Freq
	}
	alias, err := dist.NewAlias(weights)
	if err != nil {
		return nil, fmt.Errorf("workload: building request sampler: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	gaps, err := dist.ExponentialInterarrivals(rng, cfg.Requests, cfg.Rate)
	if err != nil {
		return nil, err
	}
	trace := make([]Request, cfg.Requests)
	var now float64
	for i := range trace {
		now += gaps[i]
		trace[i] = Request{Time: now, Pos: alias.Sample(rng)}
	}
	return trace, nil
}

// EmpiricalFrequencies estimates per-item request probabilities from a
// trace; tests use it to confirm traces follow the database profile.
func EmpiricalFrequencies(db *core.Database, trace []Request) []float64 {
	counts := make([]float64, db.Len())
	for _, r := range trace {
		counts[r.Pos]++
	}
	if len(trace) > 0 {
		for i := range counts {
			counts[i] /= float64(len(trace))
		}
	}
	return counts
}
