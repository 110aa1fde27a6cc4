// Command bcastsim runs a client-request simulation against a
// broadcast program and compares the measured waiting time with the
// analytical model of the paper's Eq. (2).
//
// Examples:
//
//	bcastsim -n 120 -k 6 -alg drp-cds -requests 50000
//	bcastsim -catalog traffic-info -k 5 -alg vfk -hist
//	bcastsim -paper -k 5 -cache-policy lru -cache-capacity 20
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"diversecast/internal/airsim"
	"diversecast/internal/broadcast"
	"diversecast/internal/cache"
	"diversecast/internal/cli"
	"diversecast/internal/core"
	"diversecast/internal/hybrid"
	"diversecast/internal/obs"
	"diversecast/internal/obs/trace"
	"diversecast/internal/ondemand"
	"diversecast/internal/stats"
	"diversecast/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bcastsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bcastsim", flag.ContinueOnError)
	fs.SetOutput(out)
	var dbf cli.DBFlags
	dbf.Register(fs)
	k := fs.Int("k", 6, "number of broadcast channels")
	alg := fs.String("alg", "drp-cds", "allocation algorithm")
	bandwidth := fs.Float64("bandwidth", 10, "channel bandwidth (size units per second)")
	requests := fs.Int("requests", 20000, "number of simulated client requests")
	rate := fs.Float64("rate", 50, "aggregate request arrival rate (requests/second)")
	traceSeed := fs.Int64("trace-seed", 7, "request-trace random seed")
	hist := fs.Bool("hist", false, "print a waiting-time histogram")
	mode := fs.String("mode", "push", "dissemination mode: push, pull or hybrid")
	scheduler := fs.String("scheduler", "rxw", "pull scheduler: fcfs, mrf, rxw or rxws")
	pushCount := fs.Int("push-count", 0, "hybrid: number of items pushed (0 = the hottest items covering 85% of demand)")
	cachePolicy := fs.String("cache-policy", "", "client cache policy: lru, lfu, pix or cost (push mode only; empty = no cache)")
	cacheCapacity := fs.Float64("cache-capacity", 0, "client cache capacity in size units (with -cache-policy)")
	dumpStats := fs.Bool("stats", false, "dump the process metrics registry (Prometheus text format) on exit")
	traceOut := fs.String("trace", "", "write a Chrome trace_event JSON of the run to this file (open in chrome://tracing or Perfetto)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	used := *mode
	switch {
	case *mode == "push" && *cachePolicy != "":
		used = "cached push"
	case *mode != "push" && *mode != "pull" && *mode != "hybrid":
		return fmt.Errorf("unknown mode %q (have push, pull, hybrid)", *mode)
	}
	if err := rejectIgnoredFlags(fs, used); err != nil {
		return err
	}
	if *dumpStats {
		// Runtime-health gauges ride along with the metric dump: the
		// sampler covers the run, and a final sample right before the
		// dump captures end-of-run memory pressure.
		stopSampler := obs.StartRuntimeSampler(obs.Default(), 5*time.Second)
		defer func() {
			stopSampler()
			obs.SampleRuntime(obs.Default())
			fmt.Fprintln(out, "---- metrics ----")
			_ = obs.Default().WriteText(out)
		}()
	}
	if *traceOut != "" {
		// Size the ring to the workload: the simulators emit two
		// client events per request plus cycle spans, and the
		// allocators a span per split/move — keep them all so the
		// exported timeline is complete at default request counts.
		capacity := 4*(*requests) + 8192
		if capacity < 1<<14 {
			capacity = 1 << 14
		}
		trace.Default().Enable(trace.Config{Capacity: capacity})
		defer func() {
			if err := writeTraceFile(out, *traceOut); err != nil {
				fmt.Fprintln(out, "warning: trace export failed:", err)
			}
		}()
	}

	db, _, err := dbf.Load()
	if err != nil {
		return err
	}
	trace, err := workload.GenerateTrace(db, workload.TraceConfig{
		Requests: *requests, Rate: *rate, Seed: *traceSeed,
	})
	if err != nil {
		return err
	}

	switch *mode {
	case "pull":
		return runPull(out, db, trace, *scheduler, *bandwidth, float64(*k))
	case "hybrid":
		return runHybrid(out, db, trace, *scheduler, *bandwidth, *k, *pushCount)
	}

	allocator, err := cli.NewAllocator(*alg, dbf.Seed)
	if err != nil {
		return err
	}
	a, err := allocator.Allocate(db, *k)
	if err != nil {
		return err
	}
	p, err := broadcast.Build(a, *bandwidth, broadcast.ByPosition)
	if err != nil {
		return err
	}
	if *cachePolicy != "" {
		return runCached(out, a, p, trace, *cachePolicy, *cacheCapacity, *bandwidth)
	}

	res, err := airsim.Measure(p, trace)
	if err != nil {
		return err
	}

	analytic := core.WaitingTime(a, *bandwidth)
	fmt.Fprintf(out, "algorithm:        %s (closed-form simulation)\n", allocator.Name())
	fmt.Fprintf(out, "requests:         %d at %.3g req/s\n", res.Requests, *rate)
	fmt.Fprintf(out, "analytical W_b:   %.4f s\n", analytic)
	fmt.Fprintf(out, "measured wait:    %s\n", res.Wait)
	fmt.Fprintf(out, "measured probe:   %s\n", res.Probe)
	fmt.Fprintf(out, "measured download:%s\n", res.Download)
	fmt.Fprintf(out, "relative error:   %.3f%%\n", 100*stats.RelativeError(res.Wait.Mean, analytic))
	for c, s := range res.PerChannel {
		fmt.Fprintf(out, "  channel %d: %s\n", c, s)
	}

	if *hist {
		upper := res.Wait.Max * 1.05
		if upper <= 0 {
			upper = 1
		}
		// A private registry keeps the histogram out of -stats.
		h := obs.NewRegistry().Histogram("wait_seconds", "per-request waiting time", 0, upper, 20)
		for _, req := range trace {
			w, err := p.WaitFor(req.Pos, req.Time)
			if err != nil {
				return err
			}
			h.Observe(w)
		}
		fmt.Fprintf(out, "waiting-time histogram (p50=%.3f, p95=%.3f):\n%s",
			h.Quantile(0.5), h.Quantile(0.95), renderHistogram(h.Snapshot(), 40))
	}

	if math.Abs(stats.RelativeError(res.Wait.Mean, analytic)) > 0.05 {
		fmt.Fprintln(out, "warning: measured mean deviates more than 5% from the analytical model; increase -requests")
	}
	return nil
}

// modeFlags lists, for each flag that only some modes read, the modes
// that read it. "cached push" is push mode with -cache-policy set.
var modeFlags = map[string][]string{
	"alg":            {"push", "cached push"},
	"hist":           {"push"},
	"cache-policy":   {"push", "cached push"},
	"cache-capacity": {"cached push"},
	"scheduler":      {"pull", "hybrid"},
	"push-count":     {"hybrid"},
}

// renderHistogram draws s as an ASCII bar chart, one row per bin with
// bars scaled to at most width characters, then any underflow and
// overflow counts.
func renderHistogram(s obs.HistogramSnapshot, width int) string {
	var maxCount int64 = 1
	for _, c := range s.Bins {
		maxCount = max(maxCount, c)
	}
	binSize := (s.Hi - s.Lo) / float64(len(s.Bins))
	var b strings.Builder
	for i, c := range s.Bins {
		lo := s.Lo + float64(i)*binSize
		bar := strings.Repeat("#", int(c*int64(width)/maxCount))
		fmt.Fprintf(&b, "%10.3f..%-10.3f %6d %s\n", lo, lo+binSize, c, bar)
	}
	if s.Under > 0 {
		fmt.Fprintf(&b, "%22s %6d\n", "<underflow>", s.Under)
	}
	if s.Over > 0 {
		fmt.Fprintf(&b, "%22s %6d\n", "<overflow>", s.Over)
	}
	return b.String()
}

// rejectIgnoredFlags fails on the first explicitly set flag that mode
// does not read, instead of running as if it had not been given.
func rejectIgnoredFlags(fs *flag.FlagSet, mode string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if modes, ok := modeFlags[f.Name]; ok && err == nil && !slices.Contains(modes, mode) {
			err = fmt.Errorf("-%s has no effect in %s mode", f.Name, mode)
		}
	})
	return err
}

// writeTraceFile exports the process-wide tracer's ring to path as
// Chrome trace_event JSON.
func writeTraceFile(out io.Writer, path string) error {
	snap := trace.Default().Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, snap); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "trace:            %d records (%d dropped) -> %s\n",
		len(snap.Records), snap.Dropped, path)
	return nil
}

// pullScheduler resolves the -scheduler flag.
func pullScheduler(name string) (ondemand.Scheduler, error) {
	switch name {
	case "fcfs":
		return ondemand.FCFS{}, nil
	case "mrf":
		return ondemand.MRF{}, nil
	case "rxw":
		return ondemand.RxW{}, nil
	case "rxws":
		return ondemand.RxWS{}, nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q (have fcfs, mrf, rxw, rxws)", name)
	}
}

// runPull simulates pure on-demand service: the K channels are pooled
// into one pull channel of K× bandwidth.
func runPull(out io.Writer, db *core.Database, trace []workload.Request, schedName string, bandwidth, k float64) error {
	sched, err := pullScheduler(schedName)
	if err != nil {
		return err
	}
	res, err := ondemand.Run(db, trace, sched, bandwidth*k)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "mode:             pull (%s), pooled bandwidth %.3g\n", sched.Name(), bandwidth*k)
	fmt.Fprintf(out, "requests:         %d in %d broadcasts (batch mean %.2f)\n",
		res.Requests, res.Broadcasts, res.BatchMean)
	fmt.Fprintf(out, "measured wait:    %s\n", res.Wait)
	fmt.Fprintf(out, "measured stretch: %s\n", res.Stretch)
	fmt.Fprintf(out, "uplink messages:  %d\n", res.Requests)
	return nil
}

// runHybrid simulates K−1 push channels plus one pull channel.
func runHybrid(out io.Writer, db *core.Database, trace []workload.Request, schedName string, bandwidth float64, k, pushCount int) error {
	if k < 2 {
		return fmt.Errorf("hybrid mode needs -k >= 2 (got %d): one channel is the pull channel", k)
	}
	sched, err := pullScheduler(schedName)
	if err != nil {
		return err
	}
	if pushCount == 0 {
		var mass float64
		for _, pos := range db.ByFreq() {
			mass += db.Item(pos).Freq
			pushCount++
			if mass >= 0.85 {
				break
			}
		}
		if pushCount < k-1 {
			pushCount = k - 1
		}
		if pushCount >= db.Len() {
			pushCount = db.Len() - 1
		}
	}
	plan, err := hybrid.Build(db, hybrid.Config{
		PushChannels: k - 1,
		Bandwidth:    bandwidth,
		Scheduler:    sched,
	}, pushCount)
	if err != nil {
		return err
	}
	res, err := plan.Evaluate(trace)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "mode:             hybrid (%d push + 1 pull channel, %s)\n", k-1, sched.Name())
	fmt.Fprintf(out, "pushed items:     %d covering %.1f%% of demand\n", pushCount, 100*plan.PushMass)
	fmt.Fprintf(out, "overall wait:     %s\n", res.Wait)
	fmt.Fprintf(out, "push wait:        %s\n", res.Push)
	fmt.Fprintf(out, "pull wait:        %s\n", res.Pull)
	fmt.Fprintf(out, "uplink messages:  %d\n", res.UplinkMessages)
	return nil
}

// runCached simulates a caching client against the cyclic program.
func runCached(out io.Writer, a *core.Allocation, p *broadcast.Program, trace []workload.Request, policyName string, capacity, bandwidth float64) error {
	var policy cache.Policy
	switch policyName {
	case "lru":
		policy = cache.LRU{}
	case "lfu":
		policy = cache.LFU{}
	case "pix":
		policy = cache.PIX{}
	case "cost":
		policy = cache.Cost{}
	default:
		return fmt.Errorf("unknown cache policy %q (have lru, lfu, pix, cost)", policyName)
	}
	c, err := cache.New(policy, capacity)
	if err != nil {
		return err
	}
	res, err := cache.Simulate(a, p, c, trace)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "mode:             push with %s cache (%.3g size units)\n", policy.Name(), capacity)
	fmt.Fprintf(out, "requests:         %d, hit ratio %.3f\n", res.Requests, res.HitRatio)
	fmt.Fprintf(out, "overall wait:     %s\n", res.Wait)
	fmt.Fprintf(out, "miss wait:        %s\n", res.MissWait)
	fmt.Fprintf(out, "no-cache W_b:     %.4f s\n", core.WaitingTime(a, bandwidth))
	return nil
}
