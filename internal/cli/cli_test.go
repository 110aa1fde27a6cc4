package cli

import (
	"flag"
	"io"
	"strings"
	"testing"

	"diversecast/internal/core"
)

func parse(t *testing.T, args ...string) *DBFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var f DBFlags
	f.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &f
}

func TestLoadSynthetic(t *testing.T) {
	f := parse(t, "-n", "30", "-theta", "1.2", "-phi", "1", "-seed", "9")
	db, titles, err := f.Load()
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 30 {
		t.Fatalf("N = %d", db.Len())
	}
	if titles != nil {
		t.Fatal("synthetic workloads have no titles")
	}
}

func TestLoadCatalog(t *testing.T) {
	f := parse(t, "-catalog", "news-ticker")
	db, titles, err := f.Load()
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() == 0 || len(titles) != db.Len() {
		t.Fatalf("catalog load: %d items, %d titles", db.Len(), len(titles))
	}
}

func TestLoadCatalogUnknown(t *testing.T) {
	f := parse(t, "-catalog", "bogus")
	if _, _, err := f.Load(); err == nil {
		t.Fatal("unknown catalog should fail")
	}
}

func TestLoadPaperOverridesEverything(t *testing.T) {
	f := parse(t, "-paper", "-n", "999", "-catalog", "news-ticker")
	db, _, err := f.Load()
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 15 {
		t.Fatalf("paper database has %d items", db.Len())
	}
}

func TestLoadInvalidSynthetic(t *testing.T) {
	f := parse(t, "-n", "0")
	if _, _, err := f.Load(); err == nil {
		t.Fatal("N=0 should fail")
	}
}

func TestNewAllocatorAllNames(t *testing.T) {
	for _, name := range AlgorithmNames() {
		alg, err := NewAllocator(name, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if alg.Name() == "" {
			t.Fatalf("%s: empty Name()", name)
		}
	}
	// Case-insensitive.
	if _, err := NewAllocator("DRP-CDS", 1); err != nil {
		t.Fatal(err)
	}
}

func TestNewAllocatorUnknown(t *testing.T) {
	_, err := NewAllocator("simulated-annealing", 1)
	if err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if !strings.Contains(err.Error(), "drp-cds") {
		t.Fatalf("error %q should list available algorithms", err)
	}
}

func parseCDS(t *testing.T, args ...string) *CDSFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var f CDSFlags
	f.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &f
}

func TestCDSFlagsRoundTrip(t *testing.T) {
	// Every strategy name round-trips through the flag into a refiner
	// with the matching engine.
	for _, s := range []core.CDSStrategy{core.StrategyIncremental, core.StrategyNaive} {
		f := parseCDS(t, "-cds-strategy", s.String())
		cds, err := f.Refiner()
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if cds.Strategy != s {
			t.Fatalf("strategy %q resolved to %v", s.String(), cds.Strategy)
		}
	}
	// Default: the incremental engine.
	cds, err := parseCDS(t).Refiner()
	if err != nil {
		t.Fatal(err)
	}
	if cds.Strategy != core.StrategyIncremental {
		t.Fatalf("defaults resolved to %+v", cds)
	}
}

func TestCDSFlagsErrors(t *testing.T) {
	cases := [][]string{
		{"-cds-strategy", "exhaustive"},
		{"-cds-strategy", "parallel"},
	}
	for _, args := range cases {
		if _, err := parseCDS(t, args...).Refiner(); err == nil {
			t.Fatalf("args %v: want error", args)
		}
	}
	// There is no batched mode, so no -cds-batch flag.
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	new(CDSFlags).Register(fs)
	if err := fs.Parse([]string{"-cds-batch", "16"}); err == nil {
		t.Fatal("-cds-batch still parses")
	}
}
