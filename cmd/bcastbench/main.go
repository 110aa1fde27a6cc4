// Command bcastbench runs the repository's tracked benchmark families
// and writes a machine-readable JSON report (BENCH_<pr>.json) so the
// performance trajectory is recorded alongside the code it measures.
//
// The families run through testing.Benchmark so a single command
// produces one self-describing artifact. The paper's worked example and
// its Figures 2–7 are go-test benchmarks in the root package's
// bench_test.go, and CDS trace identity is a core test; neither is
// repeated here.
//
//   - CDSScale: the production-scale CDS grid comparing the naive
//     full rescan against the default lazy-bound pair table (N up
//     to 10k, K up to 64), plus the derived naive/incremental
//     speedups. Full runs add two large-N cells for the default
//     engine: N=10^5/K=256, and N=10^6/K=1024 pinned to one
//     iteration. Every CDS result carries the engine's strategy and
//     the GOMAXPROCS it ran under.
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
// The report goes to stdout unless -out names a file, so a plain run
// never overwrites a committed artifact.
//
// Examples:
//
//	bcastbench -out BENCH_<pr>.json
//	bcastbench -quick -benchtime 1x            # CI: smallest honest signal
//	bcastbench -quick -family telemetry       # CI: the costmon overhead gate
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"diversecast/internal/core"
	"diversecast/internal/obs/trace"
	"diversecast/internal/workload"
)

// benchResult is one benchmark's measurements; Metrics carries the
// custom b.ReportMetric values (cost, Wb_s). The CDS cells also record
// the engine and the GOMAXPROCS they ran under so a reader can tell a
// single-core artifact from a multi-core one without guessing.
type benchResult struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	Strategy    string             `json:"strategy,omitempty"`
	GOMAXPROCS  int                `json:"gomaxprocs,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// report is the top-level JSON document. Derived holds quantities
// computed across results — currently the naive/incremental speedup
// per CDSScale cell. CPUModel and CDSKernel fingerprint the machine:
// the processor's model name and the member scan the default CDS
// engine runs on it ("avx2" or "go").
type report struct {
	GeneratedAt string             `json:"generated_at"`
	GoVersion   string             `json:"go_version"`
	GOOS        string             `json:"goos"`
	GOARCH      string             `json:"goarch"`
	CPUModel    string             `json:"cpu_model"`
	NumCPU      int                `json:"num_cpu"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	CDSKernel   string             `json:"cds_kernel"`
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

// tagCDS stamps a CDS cell's result with the engine it measured and
// the GOMAXPROCS it ran under.
func tagCDS(res *benchResult, c *core.CDS) {
	res.Strategy = c.Strategy.String()
	res.GOMAXPROCS = runtime.GOMAXPROCS(0)
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
	outPath := fs.String("out", "-", "report path ('-' for stdout)")
	quick := fs.Bool("quick", false, "reduced grid: skip the large-N cells")
	benchTime := fs.String("benchtime", "", "per-benchmark time or iteration budget (default 3x, 1x with -quick)")
	family := fs.String("family", "", "run only one family: cds, trace, fanout or telemetry (empty = all)")
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
		CPUModel:    cpuModel(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CDSKernel:   core.CDSKernel(),
		BenchTime:   bt,
		Quick:       *quick,
		Derived:     make(map[string]float64),
	}

	want := func(name string) bool { return *family == "" || *family == name }
	switch *family {
	case "", "cds", "trace", "fanout", "telemetry":
	default:
		return fmt.Errorf("unknown family %q (want cds, trace, fanout or telemetry)", *family)
	}
	if want("cds") {
		if err := cdsScale(rep, *quick, bt); err != nil {
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
	// run like the parity checks.
	if pct, ok := rep.Derived["telemetry_overhead_enabled_pct"]; ok && pct > 2 {
		return fmt.Errorf("enabled cost-telemetry overhead %.3f%% exceeds the 2%% budget: the steady-state probe must stay a nil check and a bool load per batch", pct)
	}
	if pct, ok := rep.Derived["telemetry_overhead_disabled_pct"]; ok && pct > 2 {
		return fmt.Errorf("disabled cost-telemetry overhead %.3f%% exceeds the 2%% budget: servers without -telemetry must pay only the nil check", pct)
	}
	return nil
}

// cpuModel returns the first "model name" in /proc/cpuinfo, or
// "unknown" where the file or the field is missing (non-Linux hosts,
// and Linux ports whose cpuinfo names no model).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	return parseCPUModel(f)
}

// parseCPUModel scans cpuinfo text for its first "model name" line.
func parseCPUModel(r io.Reader) string {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "model name" {
			if val = strings.TrimSpace(val); val != "" {
				return val
			}
		}
	}
	return "unknown"
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
// Full runs append the large-N cells; bt is the surrounding
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

	// Large-N cells. The naive engine is excluded (an O(N·K) sweep per
	// selection is hours here). MaxMoves=1000 keeps a cell in whole
	// seconds while amortizing the one-time table build enough that the
	// per-move machinery dominates.
	{
		const bigN, bigK, bigMoves = 100000, 256, 1000
		db := workload.Config{N: bigN, Theta: 0.8, Phi: 2, Seed: 1}.MustGenerate()
		a, err := randomAllocation(db, bigK, 7)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("CDSScale/N=%d/K=%d/incremental", bigN, bigK)
		if _, err := benchCDS(rep, name, &core.CDS{MaxMoves: bigMoves}, a); err != nil {
			return err
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
		name := fmt.Sprintf("CDSScale/N=%d/K=%d/incremental", hugeN, hugeK)
		if _, err := benchCDS(rep, name, &core.CDS{MaxMoves: hugeMoves}, a); err != nil {
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
