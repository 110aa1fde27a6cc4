package cli

import (
	"flag"
	"io"
	"strings"
	"testing"
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
