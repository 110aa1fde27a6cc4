// Package cli holds the flag plumbing shared by the cmd/ tools:
// selecting or generating a broadcast database, and choosing an
// allocation algorithm by name.
package cli

import (
	"flag"
	"fmt"
	"sort"
	"strings"

	"diversecast/internal/baseline"
	"diversecast/internal/core"
	"diversecast/internal/gopt"
	"diversecast/internal/workload"
)

// DBFlags selects the broadcast database: either a named catalog or a
// synthetic workload.
type DBFlags struct {
	Catalog string
	Profile string
	N       int
	Theta   float64
	Phi     float64
	Seed    int64
	Paper   bool
}

// Register installs the database flags on fs.
func (f *DBFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Catalog, "catalog", "", "named catalog ("+strings.Join(workload.Catalogs(), ", ")+"); overrides the synthetic flags")
	fs.StringVar(&f.Profile, "profile", "", "path to a JSON profile file (see workload.Profile); overrides catalog and synthetic flags")
	fs.BoolVar(&f.Paper, "paper", false, "use the paper's 15-item Table 2 database; overrides everything else")
	fs.IntVar(&f.N, "n", 120, "number of broadcast items")
	fs.Float64Var(&f.Theta, "theta", 0.8, "Zipf skewness parameter")
	fs.Float64Var(&f.Phi, "phi", 2.0, "diversity parameter (sizes are 10^U[0,phi])")
	fs.Int64Var(&f.Seed, "seed", 1, "workload random seed")
}

// Load resolves the flags into a database and (possibly nil) item
// titles.
func (f *DBFlags) Load() (*core.Database, map[int]string, error) {
	if f.Paper {
		return core.PaperExampleDatabase(), nil, nil
	}
	if f.Profile != "" {
		return workload.LoadProfileFile(f.Profile)
	}
	if f.Catalog != "" {
		cat, err := workload.CatalogByName(f.Catalog, f.Seed)
		if err != nil {
			return nil, nil, err
		}
		return cat.DB, cat.Titles, nil
	}
	db, err := workload.Config{N: f.N, Theta: f.Theta, Phi: f.Phi, Seed: f.Seed}.Generate()
	return db, nil, err
}

// CDSFlags selects the CDS move-selection engine for the drp-cds/cds
// algorithms (see core.CDSStrategy for the engines).
type CDSFlags struct {
	Strategy string
}

// Register installs the CDS engine flag on fs.
func (f *CDSFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Strategy, "cds-strategy", core.StrategyIncremental.String(),
		"CDS move-selection engine: incremental (the pair-champion table) or naive (the paper's literal rescan)")
}

// Refiner resolves the flag into a CDS refiner, rejecting unknown
// strategy names before any work is done.
func (f *CDSFlags) Refiner() (*core.CDS, error) {
	strat, err := core.ParseCDSStrategy(f.Strategy)
	if err != nil {
		return nil, err
	}
	return &core.CDS{Strategy: strat}, nil
}

// AlgorithmNames lists the allocators NewAllocator accepts.
func AlgorithmNames() []string {
	names := []string{"drp", "drp-cds", "cds", "vfk", "gopt", "flat", "greedy", "contig-dp", "exhaustive"}
	sort.Strings(names)
	return names
}

// NewAllocator constructs an allocator by name with the default CDS
// engine. GOPT uses the reference budget with the given seed.
func NewAllocator(name string, seed int64) (core.Allocator, error) {
	return NewAllocatorCDS(name, seed, core.NewCDS())
}

// NewAllocatorCDS is NewAllocator with an explicit CDS refiner for
// the algorithms that end in a CDS pass.
func NewAllocatorCDS(name string, seed int64, cds *core.CDS) (core.Allocator, error) {
	switch strings.ToLower(name) {
	case "drp":
		return core.NewDRP(), nil
	case "drp-cds", "cds":
		return &core.Refined{Base: core.NewDRP(), Refiner: cds}, nil
	case "vfk":
		return baseline.NewVFK(), nil
	case "gopt":
		return gopt.NewReference(seed), nil
	case "flat":
		return baseline.NewFlat(), nil
	case "greedy":
		return baseline.NewGreedy(), nil
	case "contig-dp":
		return baseline.NewContigDP(), nil
	case "exhaustive":
		return baseline.NewExhaustive(), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q (have %s)", name, strings.Join(AlgorithmNames(), ", "))
	}
}
