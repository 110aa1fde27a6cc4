// Command bcastsim runs a client-request simulation against a
// broadcast program and compares the measured waiting time with the
// analytical model of the paper's Eq. (2).
//
// Examples:
//
//	bcastsim -n 120 -k 6 -alg drp-cds -requests 50000
//	bcastsim -catalog traffic-info -k 5 -alg vfk -hist
//	bcastsim -paper -k 5 -requests 2000 -stats
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"diversecast/internal/airsim"
	"diversecast/internal/broadcast"
	"diversecast/internal/cli"
	"diversecast/internal/core"
	"diversecast/internal/obs"
	"diversecast/internal/obs/trace"
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
	dumpStats := fs.Bool("stats", false, "dump the process metrics registry (Prometheus text format) on exit")
	traceOut := fs.String("trace", "", "write a Chrome trace_event JSON of the run to this file (open in chrome://tracing or Perfetto)")
	if err := fs.Parse(args); err != nil {
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
