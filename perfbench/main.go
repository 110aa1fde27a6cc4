// Command perfbench is diversecast's end-to-end benchmark: one
// command that runs a named workload for a given seed, checks that the
// program's outputs are correct, and prints every metric by name with
// its unit as the last line of standard output.
//
//	perfbench --workload plan-wide --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md for why each exists):
//
//   - plan-wide:   N=10⁴ catalog, K=64 — cold DRP→CDS→Build, then
//     σ=0.1 drift epochs replanned with adapt.Replan.
//   - plan-narrow: the same pipeline at K=8.
//   - serve:       the paper defaults (N=120, K=6) broadcast over
//     loopback TCP to an open loop of item requests, with ~1000
//     in-process subscribers and a costmon monitor attached.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with the benchmark's private tracer recording spans around
// each call into the program and prints the per-layer metrics instead.
// The program's own tracer (trace.Default) is never enabled.
//
// Exit status: 0 when every check passed, 1 when a check failed (the
// result line is still printed, with "correct": false), 2 when the
// workload could not run at all (nothing is printed on stdout).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"diversecast/internal/obs/trace"
)

// metricDef names one reported metric and its unit. The two tables
// below are the benchmark's contract; BENCHMARK.json lists the same
// names (a test keeps the two in step).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"plan_s", "s"},
	{"replan_s", "s"},
	{"access_time_s", "virtual_s"},
	{"access_time_p90_s", "virtual_s"},
	{"alloc_gap", "ratio"},
	{"replan_churn", "ratio"},
	{"cpu_per_delivery_ns", "ns"},
	{"delivery_ratio", "ratio"},
	{"success_ratio", "ratio"},
	{"max_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"workload.generate_s", "s"},
	{"workload.trace_s", "s"},
	{"core.drp_s", "s"},
	{"core.cds_s", "s"},
	{"core.cds_moves", "count"},
	{"core.cds_scans", "count"},
	{"core.cds_us_per_move", "us"},
	{"core.cds_recomputed_per_move", "count"},
	{"broadcast.build_s", "s"},
	{"adapt.replan_cds_s", "s"},
	{"adapt.replan_moves", "count"},
	{"airsim.measure_s", "s"},
	{"netcast.attach_ms", "ms"},
	{"netcast.tune_ms", "ms"},
	{"netcast.item_wait_s", "virtual_s"},
	{"netcast.wait_ratio", "ratio"},
	{"netcast.frames_sent_per_s", "1/s"},
	{"netcast.bytes_sent_per_s", "B/s"},
	{"netcast.cpu_cores", "cores"},
	{"netcast.backpressure", "count"},
	{"netcast.lag_frames_p99", "frames"},
	{"costmon.tune_ins", "count"},
	{"costmon.regret_pct", "%"},
	{"costmon.report_ms", "ms"},
	{"gen.lateness_p90_us", "us"},
	{"trace.overhead_pct", "%"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) error{
	"plan-wide":   func(e *env) error { return runPlan(e, planWide(e.toy)) },
	"plan-narrow": func(e *env) error { return runPlan(e, planNarrow(e.toy)) },
	"serve":       func(e *env) error { return runServe(e, serveDefaults(e.toy)) },
}

// env is one run's context: its inputs, its private tracer, its
// correctness checks and the metrics it fills in.
type env struct {
	seed   int64
	window time.Duration
	// tr is the benchmark's private tracer; nil (a valid, disabled
	// tracer) unless --trace 1. Spans are opened only around calls
	// into the program, never inside it.
	tr   *trace.Tracer
	toy  bool
	ck   *checks
	m    map[string]float64
	log  io.Writer
	hook faults
}

// faults lets tests inject a defect into what the program delivered,
// to prove the matching check fires. The zero value injects nothing.
type faults struct {
	// corruptRequest flips one payload byte of the n-th TCP reception
	// (1-based) before it is verified.
	corruptRequest int
}

func (e *env) traced() bool { return e.tr != nil }

func (e *env) set(name string, v float64) { e.m[name] = v }

// checks counts checked operations and failures. Safe for concurrent
// use: serve requests report from their own goroutines.
type checks struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	msgs              []string
}

// ok records one checked operation; on failure it keeps the message
// (the first few) for the run's stderr report.
func (c *checks) ok(pass bool, format string, args ...any) bool {
	c.attempted.Add(1)
	if pass {
		return true
	}
	c.failed.Add(1)
	c.mu.Lock()
	if len(c.msgs) < 20 {
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
	return false
}

// noErr records one checked operation that passes when err is nil.
func (c *checks) noErr(err error, what string) bool {
	if err == nil {
		return c.ok(true, "")
	}
	return c.ok(false, "%s: %v", what, err)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: plan-wide, plan-narrow or serve")
	seed := fs.Int64("seed", 1, "seed of the generated request trace and drift epochs")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", "", "directory for the span dump of a traced run (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %v\n", *seconds)
		return 2
	}
	res, snap, err := runWorkload(*name, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, false, faults{}, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if *traceFlag == 1 && *out != "" {
		if err := writeSpans(filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed)), snap); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload and assembles its result line: the
// end-to-end metrics untraced, the per-layer metrics traced. It fails
// (without a result) when the workload is unknown or could not run.
func runWorkload(name string, seed int64, window time.Duration, traced, toy bool, hook faults, log io.Writer) (result, trace.Snapshot, error) {
	runner, ok := workloads[name]
	if !ok {
		return result{}, trace.Snapshot{}, fmt.Errorf("unknown workload %q (want plan-wide, plan-narrow or serve)", name)
	}
	e := &env{seed: seed, window: window, toy: toy, ck: &checks{}, m: map[string]float64{}, log: log, hook: hook}
	if traced {
		// Large enough that no span of a run is ever overwritten; a
		// check below fails the run if one is.
		e.tr = trace.New(trace.Config{Capacity: 1 << 18})
	}
	fmt.Fprintf(log, "perfbench: workload=%s seed=%d seconds=%.3g trace=%v nproc=%d GOMAXPROCS=%d\n",
		name, seed, window.Seconds(), traced, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	if err := runner(e); err != nil {
		return result{}, trace.Snapshot{}, fmt.Errorf("%s: %w", name, err)
	}
	var snap trace.Snapshot
	if traced {
		snap = e.tr.Snapshot()
		e.ck.ok(snap.Dropped == 0, "span ring overflowed: %d records dropped", snap.Dropped)
	}
	attempted, failed := e.ck.attempted.Load(), e.ck.failed.Load()
	e.set("success_ratio", float64(attempted-failed)/float64(max(attempted, 1)))
	e.set("max_rss_mb", maxRSSMiB())

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := e.m[d.name]
		if !ok {
			return result{}, trace.Snapshot{}, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, trace.Snapshot{}, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = res.Attempted >= 1 && res.Failed == 0
	fmt.Fprintf(log, "perfbench: %d checks, %d failed (failed_ratio %.6g)\n", attempted, failed, float64(failed)/float64(max(attempted, 1)))
	e.ck.mu.Lock()
	for _, msg := range e.ck.msgs {
		fmt.Fprintf(log, "perfbench: FAILED: %s\n", msg)
	}
	e.ck.mu.Unlock()
	return res, snap, nil
}

// writeSpans dumps a traced run's spans as Chrome trace_event JSON.
func writeSpans(path string, snap trace.Snapshot) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating span dump directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span dump: %w", err)
	}
	if err := trace.WriteChrome(f, snap); err != nil {
		f.Close()
		return fmt.Errorf("writing span dump: %w", err)
	}
	return f.Close()
}

// spanStats groups a trace snapshot's spans by name.
type spanStats struct {
	byName   map[string][]trace.Record
	children map[uint64]int64 // span ID → summed duration of its direct children
}

func newSpanStats(snap trace.Snapshot) spanStats {
	s := spanStats{byName: map[string][]trace.Record{}, children: map[uint64]int64{}}
	for _, r := range snap.Records {
		if r.Kind != trace.KindSpan {
			continue
		}
		s.byName[r.Name] = append(s.byName[r.Name], r)
		if r.Parent != 0 {
			s.children[r.Parent] += r.Dur
		}
	}
	return s
}

// seconds returns the durations of every span with the given name.
func (s spanStats) seconds(name string) []float64 {
	var out []float64
	for _, r := range s.byName[name] {
		out = append(out, float64(r.Dur)/1e9)
	}
	return out
}

// coverage returns how much of the named spans' total duration their
// direct children leave uncovered, the total itself, and the span count.
func (s spanStats) coverage(name string) (gap, total time.Duration, n int) {
	for _, r := range s.byName[name] {
		total += time.Duration(r.Dur)
		gap += time.Duration(r.Dur - s.children[r.Span])
	}
	return gap, total, len(s.byName[name])
}

// The span-accounting tolerance: the time of a plan or replan span its
// layer spans leave uncovered is the benchmark's own bookkeeping
// between the calls — clock reads and span records, a fixed cost per
// span that matters only for the sub-millisecond plans of serve.
const (
	spanGapShare   = 0.01
	spanGapPerSpan = 5 * time.Microsecond
)

// checkCoverage asserts the span accounting of a traced run: the DRP,
// CDS and Build self times cover each cold plan, and Replan plus Build
// cover each drift epoch, within the tolerance above.
func checkCoverage(e *env, s spanStats) {
	for _, name := range []string{"plan", "replan"} {
		gap, total, n := s.coverage(name)
		allowed := time.Duration(spanGapShare*float64(total)) + time.Duration(n)*spanGapPerSpan
		e.ck.ok(n > 0 && gap >= 0 && gap <= allowed,
			"span accounting: %d %s spans leave %v of %v uncovered, tolerance %v", n, name, gap, total, allowed)
		fmt.Fprintf(e.log, "perfbench: span accounting: %d %s spans leave %v of %v uncovered (%.3f%%), tolerance %v\n",
			n, name, gap, total, 100*float64(gap)/float64(max(total, 1)), allowed)
	}
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// p90 is the benchmark's tail percentile: the highest one with at
// least ten samples beyond it at the sample counts a run collects.
func p90(xs []float64) float64 { return quantile(xs, 0.9) }

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// cpuSeconds is the whole process's consumed CPU (user + system).
func cpuSeconds() float64 { return cpuClock(clockProcessCPUTime) }

// threadCPUSeconds is the CPU the calling OS thread has consumed;
// callers lock their goroutine to its thread around a measurement.
func threadCPUSeconds() float64 { return cpuClock(clockThreadCPUTime) }

// Linux CPU-time clocks. clock_gettime reads them to the nanosecond;
// getrusage reports a thread's time only to the scheduler tick (4 ms
// here), too coarse for a 15 ms replay.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(%d): %v", id, errno)) // cannot fail for these clock IDs
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// maxRSSMiB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024
}

var errNoWork = errors.New("measured phase did no work")
