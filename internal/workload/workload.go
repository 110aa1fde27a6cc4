// Package workload generates the broadcast databases and client
// request traces the paper's evaluation runs on: Zipf access
// frequencies with skewness θ, log-uniform sizes with diversity Φ
// (Table 5), plus named catalog scenarios for the CLI tools.
package workload

import (
	"fmt"
	"math/rand"

	"diversecast/internal/core"
	"diversecast/internal/dist"
)

// Config describes a synthetic broadcast database per the paper's
// simulation environment (Section 4.1, Table 5).
type Config struct {
	// N is the number of broadcast items (paper range 60–180).
	N int
	// Theta is the Zipf skewness parameter θ (paper range 0.4–1.6).
	Theta float64
	// Phi is the diversity parameter Φ: item sizes are 10^φ with
	// φ ~ U[0, Φ] (paper range 0–3; 0 is the conventional
	// equal-size environment).
	Phi float64
	// Seed makes generation deterministic.
	Seed int64
}

// Validate checks the configuration without generating anything.
func (c Config) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("workload: N must be >= 1, got %d", c.N)
	}
	if c.Theta < 0 {
		return fmt.Errorf("workload: Theta must be >= 0, got %v", c.Theta)
	}
	if c.Phi < 0 {
		return fmt.Errorf("workload: Phi must be >= 0, got %v", c.Phi)
	}
	return nil
}

// Generate builds the database: item i (1-based ID) receives the i-th
// Zipf frequency and an independently drawn log-uniform size. The
// association between popularity rank and size is random (sizes do not
// correlate with frequency), matching the paper's independent draws.
func (c Config) Generate() (*core.Database, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	freqs, err := dist.Zipf(c.N, c.Theta)
	if err != nil {
		return nil, err
	}
	sizes, err := dist.LogUniformSizes(rng, c.N, c.Phi)
	if err != nil {
		return nil, err
	}
	items := make([]core.Item, c.N)
	for i := range items {
		items[i] = core.Item{ID: i + 1, Freq: freqs[i], Size: sizes[i]}
	}
	return core.NewDatabase(items)
}

// MustGenerate is Generate but panics on error; for hard-coded
// experiment configurations.
func (c Config) MustGenerate() *core.Database {
	db, err := c.Generate()
	if err != nil {
		panic(err)
	}
	return db
}

// PaperDefaults returns the mid-point configuration of the paper's
// Table 5 used when a figure fixes all but one parameter:
// N=120, θ=0.8, Φ=2.
func PaperDefaults(seed int64) Config {
	return Config{N: 120, Theta: 0.8, Phi: 2, Seed: seed}
}

// PaperBandwidth is the channel bandwidth of Table 5 in size units per
// second.
const PaperBandwidth = 10.0
