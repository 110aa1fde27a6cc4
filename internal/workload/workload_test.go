package workload

import (
	"cmp"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"diversecast/internal/core"
)

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{N: 60, Theta: 0.8, Phi: 2}, true},
		{"zero n", Config{N: 0, Theta: 0.8, Phi: 2}, false},
		{"negative theta", Config{N: 60, Theta: -1, Phi: 2}, false},
		{"negative phi", Config{N: 60, Theta: 0.8, Phi: -0.1}, false},
		{"flat uniform", Config{N: 10}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err == nil) != tt.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, tt.ok)
			}
			_, gerr := tt.cfg.Generate()
			if (gerr == nil) != tt.ok {
				t.Fatalf("Generate() error = %v, want ok=%v", gerr, tt.ok)
			}
		})
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := Config{N: 120, Theta: 0.8, Phi: 2, Seed: 42}
	db := cfg.MustGenerate()
	if db.Len() != 120 {
		t.Fatalf("N = %d, want 120", db.Len())
	}
	if math.Abs(db.TotalFreq()-1) > 1e-9 {
		t.Fatalf("frequencies sum to %v, want 1", db.TotalFreq())
	}
	maxSize := math.Pow(10, cfg.Phi)
	for i := 0; i < db.Len(); i++ {
		it := db.Item(i)
		if it.ID != i+1 {
			t.Fatalf("item %d has ID %d", i, it.ID)
		}
		if it.Size < 1 || it.Size >= maxSize*(1+1e-12) {
			t.Fatalf("item %d size %v outside [1, 10^Φ)", i, it.Size)
		}
	}
	// Zipf ordering: earlier items are at least as popular.
	for i := 1; i < db.Len(); i++ {
		if db.Item(i).Freq > db.Item(i-1).Freq {
			t.Fatalf("frequency not decreasing at %d", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := PaperDefaults(7)
	a := cfg.MustGenerate()
	b := cfg.MustGenerate()
	for i := 0; i < a.Len(); i++ {
		if a.Item(i) != b.Item(i) {
			t.Fatalf("item %d differs between identically-seeded runs", i)
		}
	}
	cfg2 := cfg
	cfg2.Seed = 8
	c := cfg2.MustGenerate()
	same := true
	for i := 0; i < a.Len(); i++ {
		if a.Item(i).Size != c.Item(i).Size {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sizes")
	}
}

func TestGenerateEqualSizeEnvironment(t *testing.T) {
	db := Config{N: 50, Theta: 1.2, Phi: 0, Seed: 1}.MustGenerate()
	for i := 0; i < db.Len(); i++ {
		if db.Item(i).Size != 1 {
			t.Fatalf("Φ=0: item %d size %v, want 1", i, db.Item(i).Size)
		}
	}
}

// Property: any valid config yields a database that passes core
// validation and has N items.
func TestGenerateAlwaysValid(t *testing.T) {
	check := func(rawN uint8, rawTheta, rawPhi uint8, seed int64) bool {
		cfg := Config{
			N:     int(rawN)%200 + 1,
			Theta: float64(rawTheta) / 64,  // 0 .. ~4
			Phi:   float64(rawPhi%4) + 0.5, // 0.5 .. 3.5
			Seed:  seed,
		}
		db, err := cfg.Generate()
		return err == nil && db.Len() == cfg.N && math.Abs(db.TotalFreq()-1) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateTrace(t *testing.T) {
	db := PaperDefaults(1).MustGenerate()
	trace, err := GenerateTrace(db, TraceConfig{Requests: 50000, Rate: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 50000 {
		t.Fatalf("trace length %d", len(trace))
	}
	if !slices.IsSortedFunc(trace, func(a, b Request) int { return cmp.Compare(a.Time, b.Time) }) {
		t.Fatal("trace not sorted by time")
	}
	// Empirical request frequencies should track the profile.
	emp := EmpiricalFrequencies(db, trace)
	for i := 0; i < 10; i++ { // the popular head has enough mass to check
		want := db.Item(i).Freq
		if math.Abs(emp[i]-want) > 0.015+0.25*want {
			t.Errorf("item %d empirical freq %v, want ≈ %v", i, emp[i], want)
		}
	}
	// Mean arrival rate ≈ Rate.
	duration := trace[len(trace)-1].Time
	rate := float64(len(trace)) / duration
	if math.Abs(rate-100) > 3 {
		t.Errorf("empirical rate %v, want ≈ 100", rate)
	}
}

func TestGenerateTraceEdgeCases(t *testing.T) {
	db := PaperDefaults(1).MustGenerate()
	if _, err := GenerateTrace(db, TraceConfig{Requests: -1, Rate: 10}); err == nil {
		t.Error("negative request count should fail")
	}
	if _, err := GenerateTrace(db, TraceConfig{Requests: 5, Rate: 0}); err == nil {
		t.Error("zero rate should fail")
	}
	trace, err := GenerateTrace(db, TraceConfig{Requests: 0, Rate: 10})
	if err != nil || len(trace) != 0 {
		t.Errorf("empty trace: %v, len %d", err, len(trace))
	}
	if got := EmpiricalFrequencies(db, nil); len(got) != db.Len() {
		t.Error("EmpiricalFrequencies on empty trace should return zero vector")
	}
}

func TestCatalogs(t *testing.T) {
	for _, name := range Catalogs() {
		t.Run(name, func(t *testing.T) {
			cat, err := CatalogByName(name, 3)
			if err != nil {
				t.Fatal(err)
			}
			if cat.Name != name {
				t.Errorf("catalog name %q, want %q", cat.Name, name)
			}
			if cat.DB.Len() == 0 {
				t.Fatal("empty catalog database")
			}
			if math.Abs(cat.DB.TotalFreq()-1) > 1e-9 {
				t.Errorf("catalog frequencies sum to %v", cat.DB.TotalFreq())
			}
			for i := 0; i < cat.DB.Len(); i++ {
				if _, ok := cat.Titles[cat.DB.Item(i).ID]; !ok {
					t.Fatalf("item %d has no title", cat.DB.Item(i).ID)
				}
			}
			// Catalogs are allocatable end to end.
			a, err := core.NewDRPCDS().Allocate(cat.DB, 5)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCatalogByNameUnknown(t *testing.T) {
	if _, err := CatalogByName("no-such-catalog", 1); err == nil {
		t.Fatal("unknown catalog should fail")
	}
}

func TestMediaPortalIsDiverse(t *testing.T) {
	cat, err := MediaPortal(5)
	if err != nil {
		t.Fatal(err)
	}
	var minSize, maxSize = math.Inf(1), 0.0
	for i := 0; i < cat.DB.Len(); i++ {
		z := cat.DB.Item(i).Size
		if z < minSize {
			minSize = z
		}
		if z > maxSize {
			maxSize = z
		}
	}
	if maxSize/minSize < 100 {
		t.Fatalf("media portal size spread %v, want >= 100x", maxSize/minSize)
	}
}

func TestNewsTickerIsUniform(t *testing.T) {
	cat, err := NewsTicker(5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cat.DB.Len(); i++ {
		if cat.DB.Item(i).Size != 1 {
			t.Fatal("news ticker sizes must all be 1")
		}
	}
}
