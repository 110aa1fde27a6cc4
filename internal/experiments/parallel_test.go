package experiments

import (
	"runtime"
	"strconv"
	"testing"

	"diversecast/internal/workload"
)

// tinyConfig is a deliberately small configuration so the sweep-
// determinism test can afford several full figure runs.
func tinyConfig() Config {
	return Config{
		BaseN:           24,
		BaseK:           4,
		BasePhi:         2.0,
		BaseTheta:       0.8,
		Bandwidth:       workload.PaperBandwidth,
		Seeds:           []int64{11, 23},
		GOPTPopulation:  12,
		GOPTGenerations: 20,
		GOPTStagnation:  10,
	}
}

// assertSameFigure compares two figures bit-for-bit.
func assertSameFigure(t *testing.T, a, b *Figure, label string) {
	t.Helper()
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("%s: row counts %d vs %d", label, len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i].X != b.Rows[i].X {
			t.Fatalf("%s: row %d X %v vs %v", label, i, a.Rows[i].X, b.Rows[i].X)
		}
		for _, name := range a.Algorithms {
			av, bv := a.Rows[i].Values[name], b.Rows[i].Values[name]
			if av != bv {
				t.Fatalf("%s: row %d %s bits differ: %v vs %v", label, i, name, av, bv)
			}
		}
	}
}

// TestSweepDeterministicAcrossWorkers pins the parallel sweep fabric:
// a quality figure computed serially, on NumCPU workers, and with the
// GOMAXPROCS-sized default pool is bit-identical — parallelism only
// changes wall-clock, never data.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	serialCfg := tinyConfig()
	serialCfg.Workers = 1
	serial, err := Figure4(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, runtime.NumCPU()} {
		cfg := tinyConfig()
		cfg.Workers = workers
		fig, err := Figure4(cfg)
		if err != nil {
			t.Fatal(err)
		}
		assertSameFigure(t, serial, fig, "Workers="+strconv.Itoa(workers))
	}
}

// TestSweepWorkersValidation rejects a negative pool size.
func TestSweepWorkersValidation(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = -2
	if _, err := Figure2(cfg); err == nil {
		t.Fatal("Workers=-2 accepted")
	}
}
