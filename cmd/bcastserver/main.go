// Command bcastserver runs a TCP broadcast server: it generates a
// broadcast program and plays it on the wire until interrupted.
// Clients (cmd/bcastclient) tune to a channel and wait for items.
//
// Examples:
//
//	bcastserver -addr 127.0.0.1:7070 -catalog media-portal -k 6
//	bcastserver -paper -k 5 -timescale 0.1
//	bcastserver -paper -k 5 -metrics 127.0.0.1:9090
//	bcastserver -paper -k 5 -telemetry -metrics 127.0.0.1:9090
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"diversecast/internal/broadcast"
	"diversecast/internal/cli"
	"diversecast/internal/core"
	"diversecast/internal/netcast"
	"diversecast/internal/obs"
	"diversecast/internal/obs/costmon"
	"diversecast/internal/obs/trace"
)

func main() {
	app, err := start(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bcastserver:", err)
		os.Exit(1)
	}
	fmt.Println("press Ctrl-C to stop")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		fmt.Println("shutting down")
		if err := app.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "bcastserver: shutdown:", err)
			os.Exit(1)
		}
	case <-app.srv.Done():
		// The accept loop died without Close being called: the server
		// can never take another client. Surface it and exit nonzero
		// instead of running a broadcast nobody new can join.
		err := app.srv.Err()
		if cerr := app.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "bcastserver: shutdown:", cerr)
		}
		fmt.Fprintln(os.Stderr, "bcastserver: accept loop failed:", err)
		os.Exit(1)
	}
}

// app bundles the broadcast server with its optional metrics endpoint
// so main and the tests share one lifecycle.
type app struct {
	srv           *netcast.Server
	metricsLn     net.Listener
	metricsSv     *http.Server
	stopSampler   func()
	mon           *costmon.Monitor
	stopTelemetry func()
}

// Addr returns the broadcast listening address.
func (a *app) Addr() net.Addr { return a.srv.Addr() }

// MetricsAddr returns the metrics endpoint address, or nil when
// -metrics is disabled.
func (a *app) MetricsAddr() net.Addr {
	if a.metricsLn == nil {
		return nil
	}
	return a.metricsLn.Addr()
}

// Close stops the metrics endpoint and the broadcast server.
func (a *app) Close() error {
	if a.stopTelemetry != nil {
		a.stopTelemetry()
	}
	if a.stopSampler != nil {
		a.stopSampler()
	}
	if a.metricsSv != nil {
		a.metricsSv.Close()
	}
	return a.srv.Close()
}

// start parses flags, builds the program and launches the server
// (plus the -metrics endpoint if requested). It is separated from
// main so tests can run a server in-process.
func start(args []string, out io.Writer) (*app, error) {
	fs := flag.NewFlagSet("bcastserver", flag.ContinueOnError)
	fs.SetOutput(out)
	var dbf cli.DBFlags
	dbf.Register(fs)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	k := fs.Int("k", 6, "number of broadcast channels")
	alg := fs.String("alg", "drp-cds", "allocation algorithm")
	bandwidth := fs.Float64("bandwidth", 10, "channel bandwidth (size units per second)")
	timescale := fs.Float64("timescale", 1.0, "real seconds per virtual second (use <1 to accelerate)")
	bytesPerUnit := fs.Int("bytes-per-unit", 64, "payload bytes per size unit")
	ringCapacity := fs.Int("ring-capacity", 1024, "frames retained per channel in the shared ring")
	resyncLimit := fs.Int("resync-limit", 3, "consecutive ring laps before a lagging subscriber is dropped")
	clientRate := fs.Float64("client-rate", 0, "per-subscriber egress cap in bytes/second (0 = unlimited)")
	channelRate := fs.Float64("channel-rate", 0, "per-channel aggregate egress cap in bytes/second (0 = unlimited)")
	metricsAddr := fs.String("metrics", "", "serve /metrics and /debug/pprof on this address (empty = disabled)")
	telemetry := fs.Bool("telemetry", false, "enable cost-attribution telemetry: realized vs predicted wait per channel, tune-in frequency estimation and drift sensing (report on /debug/cost when -metrics is set)")
	driftThreshold := fs.Float64("drift-threshold", costmon.DefaultDriftThreshold, "total-variation drift between live and solved-for frequencies that trips the drift alarm (with -telemetry)")
	halfLife := fs.Float64("halflife", costmon.DefaultHalfLife, "tune-in frequency estimator decay half-life in wall seconds (with -telemetry)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	db, titles, err := dbf.Load()
	if err != nil {
		return nil, err
	}
	allocator, err := cli.NewAllocator(*alg, dbf.Seed)
	if err != nil {
		return nil, err
	}
	a, err := allocator.Allocate(db, *k)
	if err != nil {
		return nil, err
	}
	p, err := broadcast.Build(a, *bandwidth, broadcast.ByPosition)
	if err != nil {
		return nil, err
	}

	// The cost monitor is built before the server so tune-ins are
	// attributed from the first connection. Waits are recorded in
	// virtual seconds (the server divides wall waits by TimeScale);
	// the estimator decays in wall time.
	var mon *costmon.Monitor
	if *telemetry {
		mon, err = costmon.New(costmon.Config{
			Items:          db.Len(),
			HalfLife:       *halfLife,
			DriftThreshold: *driftThreshold,
			Wait:           costmon.WaitFirstDelivery,
		})
		if err != nil {
			return nil, err
		}
		if err := mon.SetProgram(p, db.Frequencies()); err != nil {
			return nil, err
		}
	}

	srv, err := netcast.Serve(*addr, netcast.ServerConfig{
		Program:          p,
		TimeScale:        *timescale,
		BytesPerUnit:     *bytesPerUnit,
		RingCapacity:     *ringCapacity,
		ResyncLimit:      *resyncLimit,
		ClientRateLimit:  *clientRate,
		ChannelRateLimit: *channelRate,
		CostMonitor:      mon,
	})
	if err != nil {
		return nil, err
	}
	ap := &app{srv: srv, mon: mon}
	if mon != nil {
		ap.stopTelemetry = mon.Start(10 * time.Second)
		fmt.Fprintf(out, "cost telemetry on (wait kind first_delivery, drift threshold %.3f, half-life %gs)\n",
			*driftThreshold, *halfLife)
	}

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			if cerr := srv.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "bcastserver: closing server after failed metrics listen:", cerr)
			}
			return nil, fmt.Errorf("metrics listen: %w", err)
		}
		// The observability endpoint activates the process-wide tracer
		// (connection lifecycle spans land in its ring) and a periodic
		// runtime sampler (goroutines, heap, GC pauses as gauges).
		trace.Default().Enable(trace.Config{Capacity: 1 << 16})
		ap.stopSampler = obs.StartRuntimeSampler(obs.Default(), 5*time.Second)
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Default().Handler())
		mux.Handle("/debug/obstrace", obstraceHandler())
		if mon != nil {
			mux.Handle("/debug/cost", mon.Handler())
		}
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ap.metricsLn = ln
		ap.metricsSv = &http.Server{Handler: mux}
		go ap.metricsSv.Serve(ln)
		extra := ""
		if mon != nil {
			extra = ", cost report on /debug/cost"
		}
		fmt.Fprintf(out, "metrics on http://%s/metrics (trace snapshots on /debug/obstrace, pprof on /debug/pprof/%s)\n", ln.Addr(), extra)
	}

	fmt.Fprintf(out, "broadcasting on %s (%s, W_b = %.4fs, timescale %g)\n",
		srv.Addr(), allocator.Name(), core.WaitingTime(a, *bandwidth), *timescale)
	fmt.Fprint(out, p.Render(titles))
	return ap, nil
}

// obstraceHandler serves a point-in-time snapshot of the process-wide
// trace ring: Chrome trace_event JSON by default (load in
// chrome://tracing or Perfetto), human-readable text with ?format=text.
func obstraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := trace.Default().Snapshot()
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			//diverselint:ignore errdrop a failed snapshot write means the client hung up mid-response; the next request takes a fresh snapshot
			_ = trace.WriteText(w, snap)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		//diverselint:ignore errdrop a failed snapshot write means the client hung up mid-response; the next request takes a fresh snapshot
		_ = trace.WriteChrome(w, snap)
	})
}
