// Command bcastbench runs the repository's tracked benchmark families
// and writes a machine-readable JSON report (BENCH_<pr>.json) so the
// performance trajectory is recorded alongside the code it measures.
//
// The families mirror the go-test benchmarks (same names, same
// configurations) but run through testing.Benchmark so a single
// command produces one self-describing artifact:
//
//   - CDSScale: the production-scale CDS grid comparing the naive
//     full rescan against the incremental candidate table (N up to
//     10k, K up to 64), plus the derived naive/incremental speedups.
//     Full runs add the large-N cells: N=10^5/K=256 comparing strict
//     descent against the batched mode, and an N=10^6/K=1024 batched
//     cell pinned to one iteration. Every CDS result carries the
//     engine's strategy, shard width (workers, the GOMAXPROCS it ran
//     under) and batch size, so a single-core run is attributable as
//     such: the sharded sweeps can only fold wall clock when
//     GOMAXPROCS grants real cores.
//   - CDSParallel: shard-width scaling cells for the default engine
//     (GOMAXPROCS set per cell) plus the bit-identity gate — the
//     refinements at GOMAXPROCS 1 (serial sweeps) and 8 (sharded)
//     must produce identical move traces down to the float bits, in
//     strict and in batched mode. A mismatch fails the run (nonzero
//     exit), so CI enforces the determinism contract, not just the
//     tests.
//   - Tables2to4: the paper's worked example (DRP + CDS, cost 22.29).
//   - Figure6/Figure7: the execution-time comparisons over K and N
//     with GOPT pinned to Workers: 1 — timing figures measure
//     algorithmic cost, so the parallel evaluation fabric must not
//     fold wall-clock by the benchmark machine's core count.
//   - TraceOverhead: the cost of the diversetrace probes on the CDS
//     hot path, disabled and enabled, plus a microbenchmark pricing
//     one disabled probe. The disabled path is gated at 2%: if the
//     probes ever grow past a few atomic loads, the gate fails the
//     bench target rather than letting always-on instrumentation tax
//     every allocation.
//   - NetcastFanout: the shared-frame-ring fan-out, measured as
//     subscribers-per-core over timed windows (see fanout.go): a
//     ring cell over real TCP plus a 100k-subscriber ring cell with
//     byte-parity verifiers. Full runs gate the TCP cell's delivery
//     ratio at 0.95 and 100k backpressure events at zero; every run
//     gates parity failures and malformed frames at zero and each
//     delivery ratio at 1 or below.
//   - TelemetryOverhead: what the costmon cost-attribution probes cost
//     the fan-out drain (see telemetry.go) — ring cells with the
//     monitor absent and present, microbenchmarks pricing one
//     estimator update, one wait record and each per-batch probe, and
//     an analytically derived overhead percentage gated at 2% for
//     both the enabled and the disabled configuration.
//
// Examples:
//
//	bcastbench -out BENCH_10.json
//	bcastbench -quick -benchtime 1x            # CI: smallest honest signal
//	bcastbench -quick -family cdsparallel      # CI: the bit-identity gate
//	bcastbench -quick -family telemetry       # CI: the costmon overhead gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"diversecast/internal/core"
	"diversecast/internal/gopt"
	"diversecast/internal/obs"
	"diversecast/internal/obs/trace"
	"diversecast/internal/workload"
)

// benchResult is one benchmark's measurements; Metrics carries the
// custom b.ReportMetric values (cost, Wb_s). The CDS cells also record
// the engine configuration and the GOMAXPROCS they ran under so a
// reader can tell a single-core artifact from a multi-core one without
// guessing: the engine shards its large sweeps GOMAXPROCS wide, so
// Workers is that width, and a cell measured at gomaxprocs=1 ran every
// sweep inline.
type benchResult struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Strategy    string             `json:"strategy,omitempty"`
	Workers     int                `json:"workers,omitempty"`
	BatchSize   int                `json:"batch_size,omitempty"`
	GOMAXPROCS  int                `json:"gomaxprocs,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// report is the top-level JSON document. Derived holds quantities
// computed across results — currently the naive/incremental speedup
// per CDSScale cell.
type report struct {
	GeneratedAt string             `json:"generated_at"`
	GoVersion   string             `json:"go_version"`
	GOOS        string             `json:"goos"`
	GOARCH      string             `json:"goarch"`
	NumCPU      int                `json:"num_cpu"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	BenchTime   string             `json:"bench_time"`
	Quick       bool               `json:"quick"`
	Results     []benchResult      `json:"results"`
	Derived     map[string]float64 `json:"derived,omitempty"`
}

// record appends one result and returns a pointer into the report so
// callers can attach per-result metadata (the CDS engine tags).
func (r *report) record(name string, br testing.BenchmarkResult) *benchResult {
	res := benchResult{
		Name:        name,
		Iterations:  br.N,
		NsPerOp:     float64(br.NsPerOp()),
		BytesPerOp:  br.AllocedBytesPerOp(),
		AllocsPerOp: br.AllocsPerOp(),
	}
	if len(br.Extra) > 0 {
		res.Metrics = make(map[string]float64, len(br.Extra))
		for k, v := range br.Extra {
			res.Metrics[k] = v
		}
	}
	r.Results = append(r.Results, res)
	fmt.Fprintf(os.Stderr, "%-48s %12.0f ns/op\n", name, res.NsPerOp)
	return &r.Results[len(r.Results)-1]
}

// tagCDS stamps a CDS cell's result with the engine configuration it
// measured: strategy, batch size, and the GOMAXPROCS it ran under,
// which is also the engine's shard width.
func tagCDS(res *benchResult, c *core.CDS) {
	res.Strategy = c.Strategy.String()
	res.Workers = runtime.GOMAXPROCS(0)
	res.BatchSize = c.BatchSize
	res.GOMAXPROCS = res.Workers
}

// withProcs runs fn under GOMAXPROCS procs — the default CDS engine's
// shard width — and restores the previous setting.
func withProcs(procs int, fn func() error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return fn()
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bcastbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bcastbench", flag.ContinueOnError)
	fs.SetOutput(out)
	outPath := fs.String("out", "BENCH_10.json", "report path ('-' for stdout)")
	quick := fs.Bool("quick", false, "reduced grid: skip the large-N cells and the GOPT timing columns")
	benchTime := fs.String("benchtime", "", "per-benchmark time or iteration budget (default 3x, 1x with -quick)")
	family := fs.String("family", "", "run only one family: cds, cdsparallel, tables, figures, trace, fanout or telemetry (empty = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	bt := *benchTime
	if bt == "" {
		bt = "3x"
		if *quick {
			bt = "1x"
		}
	}
	// testing.Benchmark reads the -test.benchtime flag value that
	// testing.Init registers; setting it here budgets every family.
	testing.Init()
	if err := flag.Set("test.benchtime", bt); err != nil {
		return fmt.Errorf("benchtime %q: %w", bt, err)
	}

	rep := &report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		BenchTime:   bt,
		Quick:       *quick,
		Derived:     make(map[string]float64),
	}

	want := func(name string) bool { return *family == "" || *family == name }
	switch *family {
	case "", "cds", "cdsparallel", "tables", "figures", "trace", "fanout", "telemetry":
	default:
		return fmt.Errorf("unknown family %q (want cds, cdsparallel, tables, figures, trace, fanout or telemetry)", *family)
	}
	if want("cds") {
		if err := cdsScale(rep, *quick, bt); err != nil {
			return err
		}
	}
	if want("cdsparallel") {
		if err := cdsParallel(rep, *quick); err != nil {
			return err
		}
	}
	if want("tables") {
		if err := tables2to4(rep); err != nil {
			return err
		}
	}
	if want("figures") {
		if err := figureTimings(rep, *quick); err != nil {
			return err
		}
	}
	if want("trace") {
		if err := traceOverhead(rep); err != nil {
			return err
		}
	}
	if want("fanout") {
		if err := netcastFanout(rep, *quick); err != nil {
			return err
		}
	}
	if want("telemetry") {
		if err := telemetryOverhead(rep, *quick); err != nil {
			return err
		}
	}

	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if *outPath == "-" {
		if _, err := out.Write(doc); err != nil {
			return err
		}
	} else if err := os.WriteFile(*outPath, doc, 0o644); err != nil {
		return err
	}
	// The overhead gate runs after the artifact is written so a failing
	// run still leaves the numbers on disk for inspection. -quick runs
	// a single iteration per cell, too noisy to gate on.
	if !*quick {
		if pct, ok := rep.Derived["trace_overhead_disabled_pct"]; ok && pct > 2 {
			return fmt.Errorf("disabled-tracer overhead %.3f%% exceeds the 2%% budget: the probe path must stay a few atomic loads", pct)
		}
		if bp, ok := rep.Derived["netcast_fanout_100k_backpressure_events"]; ok && bp != 0 {
			return fmt.Errorf("100k cell saw %.0f backpressure events (resyncs/drops): the scale point must hold without a drop storm", bp)
		}
		// The TCP cell must have fed its subscribers the whole
		// broadcast: a saturated cell deflates subscribers-per-core.
		if ratio, ok := rep.Derived["netcast_fanout_ring_delivery_ratio"]; ok && ratio < 0.95 {
			return fmt.Errorf("netcast_fanout_ring_delivery_ratio = %.3f: the cell did not sustain the offered load, so its subscribers-per-core is not comparable", ratio)
		}
	}
	// Parity is correctness, not noise: gate it even in -quick.
	if pf, ok := rep.Derived["netcast_fanout_parity_failures"]; ok && pf != 0 {
		return fmt.Errorf("%.0f payload parity failures across fan-out cells: subscribers received bytes that differ from the deterministic generator", pf)
	}
	if mf, ok := rep.Derived["netcast_fanout_malformed_frames"]; ok && mf != 0 {
		return fmt.Errorf("%.0f malformed frames across fan-out cells: a subscriber write was not exactly one well-formed frame", mf)
	}
	// The window accounting counts only frames broadcast inside the
	// window, so a ratio above 1 is an accounting bug, not load.
	for _, key := range []string{"netcast_fanout_ring_delivery_ratio", "netcast_fanout_100k_delivery_ratio"} {
		if ratio, ok := rep.Derived[key]; ok && ratio > 1 {
			return fmt.Errorf("%s = %.4f exceeds 1: the window accounting counted a frame broadcast outside the window", key, ratio)
		}
	}
	// The telemetry overheads are analytic bounds (probe costs measured
	// over thousand-iteration batches against the cell's per-delivery
	// cost), robust even at -quick iteration counts, so they gate every
	// run like the bit-identity and parity checks.
	if pct, ok := rep.Derived["telemetry_overhead_enabled_pct"]; ok && pct > 2 {
		return fmt.Errorf("enabled cost-telemetry overhead %.3f%% exceeds the 2%% budget: the steady-state probe must stay a nil check and a bool load per batch", pct)
	}
	if pct, ok := rep.Derived["telemetry_overhead_disabled_pct"]; ok && pct > 2 {
		return fmt.Errorf("disabled cost-telemetry overhead %.3f%% exceeds the 2%% budget: servers without -telemetry must pay only the nil check", pct)
	}
	return nil
}

// randomAllocation mirrors the core test helper: a deterministic
// uniform assignment used as the CDSScale refinement start.
func randomAllocation(db *core.Database, k, seed int) (*core.Allocation, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	channel := make([]int, db.Len())
	for i := range channel {
		channel[i] = rng.Intn(k)
	}
	return core.NewAllocation(db, k, channel)
}

// benchCDS benchmarks one configured engine refining a fixed start,
// records the cell with its engine tags, reports the refined cost as a
// metric (the strict and batched engines trade per-move quality
// differently at a pinned move budget, so the cost belongs next to the
// timing), and returns ns/op.
func benchCDS(rep *report, name string, cds *core.CDS, a *core.Allocation) (float64, error) {
	var benchErr error
	br := testing.Benchmark(func(b *testing.B) {
		var cost float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := cds.Refine(a)
			if err != nil {
				benchErr = err
				b.Fatal(err)
			}
			cost = core.Cost(out)
		}
		b.ReportMetric(cost, "cost")
	})
	if benchErr != nil {
		return 0, benchErr
	}
	tagCDS(rep.record(name, br), cds)
	return float64(br.NsPerOp()), nil
}

// cdsScale runs the CDSScale grid and derives per-cell speedups.
// MaxMoves pins the amount of optimization work per op exactly like
// BenchmarkCDSScale (keep the constant in sync with bench_test.go).
// Full runs append the large-N parallel cells; bt is the surrounding
// -benchtime budget, restored after the N=10^6 cell pins itself to a
// single iteration.
func cdsScale(rep *report, quick bool, bt string) error {
	const maxMoves = 200
	sizes := []int{120, 1000, 10000}
	if quick {
		sizes = []int{120, 1000}
	}
	for _, n := range sizes {
		db := workload.Config{N: n, Theta: 0.8, Phi: 2, Seed: 1}.MustGenerate()
		for _, k := range []int{6, 16, 64} {
			a, err := randomAllocation(db, k, 7)
			if err != nil {
				return err
			}
			perStrategy := make(map[core.CDSStrategy]float64, 2)
			for _, strat := range []core.CDSStrategy{core.StrategyNaive, core.StrategyIncremental} {
				cds := &core.CDS{Strategy: strat, MaxMoves: maxMoves}
				ns, err := benchCDS(rep, fmt.Sprintf("CDSScale/N=%d/K=%d/%s", n, k, strat), cds, a)
				if err != nil {
					return err
				}
				perStrategy[strat] = ns
			}
			if incr := perStrategy[core.StrategyIncremental]; incr > 0 {
				rep.Derived[fmt.Sprintf("cds_speedup/N=%d/K=%d", n, k)] =
					perStrategy[core.StrategyNaive] / incr
			}
		}
	}
	if quick {
		return nil
	}

	// Large-N cells: the sizes the sharded sweeps and the batched mode
	// exist for. The naive engine is excluded (an O(N·K) sweep per
	// selection is hours here); strict descent is the baseline.
	// MaxMoves=1000 keeps a cell in whole seconds while amortizing the
	// one-time table build enough that the per-move machinery
	// dominates. The derived speedup divides the baseline by the
	// batched mode (relaxed descent, same-cost guarantee per move
	// only): fewer table repairs per move, a per-core-independent
	// saving. Both cells shard at the process GOMAXPROCS.
	{
		const bigN, bigK, bigMoves = 100000, 256, 1000
		db := workload.Config{N: bigN, Theta: 0.8, Phi: 2, Seed: 1}.MustGenerate()
		a, err := randomAllocation(db, bigK, 7)
		if err != nil {
			return err
		}
		base := fmt.Sprintf("CDSScale/N=%d/K=%d/", bigN, bigK)
		incr, err := benchCDS(rep, base+"incremental",
			&core.CDS{Strategy: core.StrategyIncremental, MaxMoves: bigMoves}, a)
		if err != nil {
			return err
		}
		bat, err := benchCDS(rep, base+"incremental/B=64",
			&core.CDS{BatchSize: 64, MaxMoves: bigMoves}, a)
		if err != nil {
			return err
		}
		cell := fmt.Sprintf("/N=%d/K=%d", bigN, bigK)
		if bat > 0 {
			rep.Derived["cds_batched_speedup"+cell] = incr / bat
		}
	}

	// The N=10^6/K=1024 cell: the paper's environment scaled three
	// orders past its tables. One iteration — the table build alone is
	// N·K work, and a multi-iteration budget would push `make bench`
	// past its patience for one data point.
	if err := flag.Set("test.benchtime", "1x"); err != nil {
		return err
	}
	defer func() { _ = flag.Set("test.benchtime", bt) }()
	{
		const hugeN, hugeK, hugeMoves = 1000000, 1024, 100
		db := workload.Config{N: hugeN, Theta: 0.8, Phi: 2, Seed: 1}.MustGenerate()
		a, err := randomAllocation(db, hugeK, 7)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("CDSScale/N=%d/K=%d/incremental/B=64", hugeN, hugeK)
		cds := &core.CDS{BatchSize: 64, MaxMoves: hugeMoves}
		if _, err := benchCDS(rep, name, cds, a); err != nil {
			return err
		}
	}
	return nil
}

// sameMoves reports whether two move traces are bit-for-bit identical:
// same length, and every move agrees on position, groups, batch
// ordinal and the exact float bits of its Δc and cost chain.
func sameMoves(a, b []core.Move) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Pos != y.Pos || x.From != y.From || x.To != y.To || x.Batch != y.Batch ||
			math.Float64bits(x.Reduction) != math.Float64bits(y.Reduction) ||
			math.Float64bits(x.CostBefore) != math.Float64bits(y.CostBefore) ||
			math.Float64bits(x.CostAfter) != math.Float64bits(y.CostAfter) {
			return false
		}
	}
	return true
}

// cdsParallel runs the shard-width scaling cells and the bit-identity
// gate. The default engine shards its large sweeps GOMAXPROCS wide, so
// every cell sets GOMAXPROCS for its duration. The gate is the
// determinism contract enforced where CI can see it: the same
// refinement at GOMAXPROCS 1 (every sweep inline) and 8 (sweeps
// sharded, checked on the engine's sharded-sweep counter) must produce
// bit-for-bit identical move traces, in strict and in batched mode.
// Any divergence returns an error before the report gates, failing the
// run. The gate needs no multi-core host — sharding is by index, so a
// single core exercises the same shard boundaries and reduction order.
//
// Strict moves shard only when their two touched groups are large
// (core's cdsShardMinGroup), so the strict gate and scaling cells run
// at K=8; the batched cells and the baseline cell keep the family's
// many-channel instance.
func cdsParallel(rep *report, quick bool) error {
	n, k, maxMoves, batch := 20000, 64, 200, 32
	if quick {
		n, k, maxMoves = 6000, 32, 60
	}
	const strictK = 8
	db := workload.Config{N: n, Theta: 0.8, Phi: 2, Seed: 1}.MustGenerate()
	a, err := randomAllocation(db, k, 7)
	if err != nil {
		return err
	}
	narrow, err := randomAllocation(db, strictK, 7)
	if err != nil {
		return err
	}

	for _, g := range []struct {
		mode  string
		cds   *core.CDS
		start *core.Allocation
	}{
		{"strict", &core.CDS{MaxMoves: maxMoves}, narrow},
		{"batched", &core.CDS{BatchSize: batch, MaxMoves: maxMoves}, a},
	} {
		var traces [2][]core.Move
		var sweeps [2]int64
		for i, procs := range []int{1, 8} {
			before := shardedSweeps()
			err := withProcs(procs, func() (err error) {
				_, traces[i], err = g.cds.RefineWithTrace(g.start)
				return err
			})
			if err != nil {
				return err
			}
			sweeps[i] = shardedSweeps() - before
		}
		if sweeps[0] != 0 || sweeps[1] == 0 {
			return fmt.Errorf("bit-identity gate: %s mode sharded %d sweeps at GOMAXPROCS=1 and %d at GOMAXPROCS=8; the gate needs serial vs sharded", g.mode, sweeps[0], sweeps[1])
		}
		if !sameMoves(traces[0], traces[1]) {
			return fmt.Errorf("bit-identity gate: %s traces diverge between GOMAXPROCS=1 and GOMAXPROCS=8 (N=%d K=%d B=%d, %d vs %d moves)", g.mode, n, g.start.K(), g.cds.BatchSize, len(traces[0]), len(traces[1]))
		}
		rep.Derived["cds_"+g.mode+"_bit_identity_moves"] = float64(len(traces[0]))
	}

	// Timing cells: the engine at the process GOMAXPROCS (the baseline
	// cell), strict descent at increasing shard widths on the K=8
	// instance, then the batched mode. Quick runs keep one cell per
	// engine mode at two widths — enough for CI to notice a regression
	// sign, not to measure scaling.
	workers := []int{1, 2, 4, 8}
	batches := []int{8, 32}
	if quick {
		workers = []int{1, 8}
		batches = []int{batch}
	}
	base := fmt.Sprintf("CDSParallel/N=%d/K=%d/", n, k)
	incr, err := benchCDS(rep, base+"incremental", &core.CDS{MaxMoves: maxMoves}, a)
	if err != nil {
		return err
	}
	var serial float64
	for _, w := range workers {
		err := withProcs(w, func() error {
			ns, err := benchCDS(rep, fmt.Sprintf("CDSParallel/N=%d/K=%d/W=%d", n, strictK, w), &core.CDS{MaxMoves: maxMoves}, narrow)
			if w == 1 {
				serial = ns
			}
			if ns > 0 && serial > 0 {
				rep.Derived[fmt.Sprintf("cds_parallel_speedup_w%d/N=%d/K=%d", w, n, strictK)] = serial / ns
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	for _, bsz := range batches {
		err := withProcs(8, func() error {
			ns, err := benchCDS(rep, fmt.Sprintf("%sW=8/B=%d", base, bsz), &core.CDS{BatchSize: bsz, MaxMoves: maxMoves}, a)
			if ns > 0 {
				rep.Derived[fmt.Sprintf("cds_batched_speedup_b%d/N=%d/K=%d", bsz, n, k)] = incr / ns
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// shardedSweeps reads the CDS engine's sharded-sweep counter.
func shardedSweeps() int64 {
	return obs.Default().Snapshot().Counter("core_cds_parallel_sweeps_total")
}

// tables2to4 reproduces the paper's worked example end to end and
// reports the refined cost (the paper's 22.29).
func tables2to4(rep *report) error {
	db := core.PaperExampleDatabase()
	var benchErr error
	br := testing.Benchmark(func(b *testing.B) {
		var cost float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a, err := core.NewDRPExampleConsistent().Allocate(db, core.PaperExampleK)
			if err != nil {
				benchErr = err
				b.Fatal(err)
			}
			refined, err := core.NewCDS().Refine(a)
			if err != nil {
				benchErr = err
				b.Fatal(err)
			}
			cost = core.Cost(refined)
		}
		b.ReportMetric(cost, "cost")
	})
	if benchErr != nil {
		return benchErr
	}
	rep.record("Tables2to4", br)
	return nil
}

// timeAllocator benchmarks one allocator on db/k, reporting the
// resulting waiting time as Wb_s exactly like the go-test harness.
func timeAllocator(rep *report, name string, alg core.Allocator, db *core.Database, k int) error {
	var benchErr error
	br := testing.Benchmark(func(b *testing.B) {
		var wb float64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a, err := alg.Allocate(db, k)
			if err != nil {
				benchErr = err
				b.Fatal(err)
			}
			wb = core.WaitingTime(a, workload.PaperBandwidth)
		}
		b.ReportMetric(wb, "Wb_s")
	})
	if benchErr != nil {
		return benchErr
	}
	rep.record(name, br)
	return nil
}

// figureTimings runs the paper's execution-time comparisons
// (Figures 6 and 7). GOPT is serial (Workers: 1) for comparability
// and skipped entirely under -quick: at 600 generations it dwarfs the
// rest of the run without informing the CDS trajectory.
func figureTimings(rep *report, quick bool) error {
	serialGOPT := func() core.Allocator {
		return &gopt.GOPT{PopulationSize: 120, Generations: 600, Stagnation: 80, Polish: true, Seed: 11, Workers: 1}
	}
	fig6DB := workload.PaperDefaults(11).MustGenerate()
	for _, k := range []int{4, 6, 8, 10} {
		if err := timeAllocator(rep, fmt.Sprintf("Figure6/K=%d/DRP-CDS", k), core.NewDRPCDS(), fig6DB, k); err != nil {
			return err
		}
		if quick {
			continue
		}
		if err := timeAllocator(rep, fmt.Sprintf("Figure6/K=%d/GOPT", k), serialGOPT(), fig6DB, k); err != nil {
			return err
		}
	}
	for _, n := range []int{60, 120, 180} {
		db := workload.Config{N: n, Theta: 0.8, Phi: 2, Seed: 11}.MustGenerate()
		if err := timeAllocator(rep, fmt.Sprintf("Figure7/N=%d/DRP-CDS", n), core.NewDRPCDS(), db, 6); err != nil {
			return err
		}
		if quick {
			continue
		}
		if err := timeAllocator(rep, fmt.Sprintf("Figure7/N=%d/GOPT", n), serialGOPT(), db, 6); err != nil {
			return err
		}
	}
	return nil
}

// traceOverhead measures what the diversetrace probes cost the CDS hot
// path. Two cells refine the same N=1000/K=16 start with the tracer
// disabled and enabled; DisabledProbe prices one disabled Start/End
// pair in isolation. The committed disabled-path number is analytic
// rather than a difference of two noisy cell timings: one Refine with
// MaxMoves moves executes at most MaxMoves+2 probes (the Enabled check
// at entry, one per move, the final End), so
// probe_ns x (MaxMoves+2) / cell_ns bounds the relative overhead
// without subtracting near-equal measurements.
func traceOverhead(rep *report) error {
	const maxMoves = 200
	db := workload.Config{N: 1000, Theta: 0.8, Phi: 2, Seed: 1}.MustGenerate()
	a, err := randomAllocation(db, 16, 7)
	if err != nil {
		return err
	}
	cell := make(map[string]float64, 2)
	for _, mode := range []string{"disabled", "enabled"} {
		tr := trace.New(trace.Config{Capacity: 1 << 15})
		if mode == "disabled" {
			tr.Disable()
		}
		cds := &core.CDS{Strategy: core.StrategyIncremental, MaxMoves: maxMoves, Tracer: tr}
		var benchErr error
		br := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cds.Refine(a); err != nil {
					benchErr = err
					b.Fatal(err)
				}
			}
		})
		if benchErr != nil {
			return benchErr
		}
		rep.record("TraceOverhead/CDSScale/N=1000/K=16/"+mode, br)
		cell[mode] = nsPerOp(br)
	}

	// One disabled probe: Start on a disabled tracer returns the
	// inactive zero Span and End on it is a no-op — the whole pair is
	// an atomic load plus branches. The family benchtime can be as low
	// as one iteration, far below timer resolution for a nanosecond
	// probe, so each op runs a fixed batch and the batch is divided
	// back out.
	const probeBatch = 1000
	tr := trace.New(trace.Config{Capacity: 8})
	tr.Disable()
	br := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < probeBatch; j++ {
				sp := tr.Start("bench_probe")
				sp.End()
			}
		}
	})
	rep.record("TraceOverhead/DisabledProbe_x1000", br)
	probe := nsPerOp(br) / probeBatch

	if d := cell["disabled"]; d > 0 {
		rep.Derived["trace_overhead_disabled_pct"] = probe * float64(maxMoves+2) / d * 100
		rep.Derived["trace_overhead_enabled_pct"] = (cell["enabled"] - d) / d * 100
	}
	return nil
}

// nsPerOp keeps sub-nanosecond resolution; BenchmarkResult.NsPerOp
// truncates to whole nanoseconds, useless for a probe that costs ~2ns.
func nsPerOp(br testing.BenchmarkResult) float64 {
	if br.N <= 0 {
		return 0
	}
	return float64(br.T.Nanoseconds()) / float64(br.N)
}
