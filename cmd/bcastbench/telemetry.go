package main

import (
	"fmt"
	"testing"
	"time"

	"diversecast/internal/netcast"
	"diversecast/internal/obs"
	"diversecast/internal/obs/costmon"
	"diversecast/internal/obs/trace"
)

// The TelemetryOverhead family prices the costmon instrumentation the
// same way TraceOverhead prices the diversetrace probes: two whole-
// system cells plus microbenchmarks isolating each probe, with the
// committed overhead number derived analytically rather than as a
// difference of two noisy window timings.
//
// The cells replay the fan-out drain (the hottest loop costmon
// touches) with the monitor absent and present. In the steady state
// the enabled path costs one nil check and one bool load per written
// batch (sub.delivered short-circuits everything else forever), plus
// a one-time ObserveTuneIn and RecordWait per subscriber lifetime —
// so the analytic per-delivery overhead is
//
//	probe_ns + (observe_ns + record_ns) / deliveries_per_sub
//	--------------------------------------------------------- x 100
//	             disabled_ns_per_delivery
//
// gated at 2% alongside the disabled bound, which is the nil-check
// branch alone.

// benchNilMon is package-level so the compiler cannot prove the nil
// check away: the microbenchmarks must price the real branch.
var benchNilMon *costmon.Monitor

// benchSinkInt keeps the probe loops observable.
var benchSinkInt int64

// telemetryMonitor builds a monitor sized for the fan-out program
// (items must cover the program's positions; the solved-for profile is
// the program's own uniform one).
func telemetryMonitor(items int) (*costmon.Monitor, error) {
	return costmon.New(costmon.Config{
		Items:    items,
		Wait:     costmon.WaitFirstDelivery,
		Registry: obs.NewRegistry(),
		Tracer:   trace.New(trace.Config{Capacity: 1 << 10}),
	})
}

// telemetryOverhead runs the TelemetryOverhead cells and derives the
// gated overhead percentages.
func telemetryOverhead(rep *report, quick bool) error {
	const fanoutItems = 32
	sinkSubs, window := 4096, 3*time.Second
	if quick {
		sinkSubs, window = 1024, 1500*time.Millisecond
	}

	hot, err := fanoutProgram(fanoutItems)
	if err != nil {
		return err
	}
	mkCfg := func(mon *costmon.Monitor) netcast.ServerConfig {
		return netcast.ServerConfig{
			Program: hot, TimeScale: 0.03,
			RingCapacity: 8192,
			WriteTimeout: 30 * time.Second,
			CostMonitor:  mon,
		}
	}

	// Disabled cell: the exact ring-drain deployment, no monitor.
	dc, err := runFanoutCell(rep,
		fmt.Sprintf("TelemetryOverhead/ring_drain/disabled/subs=%d", sinkSubs),
		mkCfg(nil), 0, sinkSubs, 2, window)
	if err != nil {
		return err
	}
	disabledNs := rep.Results[len(rep.Results)-1].NsPerOp

	mon, err := telemetryMonitor(fanoutItems)
	if err != nil {
		return err
	}
	solved := make([]float64, fanoutItems)
	for i := range solved {
		solved[i] = 1
	}
	if err := mon.SetProgram(hot, solved); err != nil {
		return err
	}
	ec, err := runFanoutCell(rep,
		fmt.Sprintf("TelemetryOverhead/ring_drain/enabled/subs=%d", sinkSubs),
		mkCfg(mon), 0, sinkSubs, 2, window)
	if err != nil {
		return err
	}
	enabledNs := rep.Results[len(rep.Results)-1].NsPerOp
	// Health snapshot before the microbenchmarks reuse the monitor: the
	// enabled cell must actually have sensed the fleet.
	if got := mon.Report(); len(got.Channels) > 0 {
		rep.Derived["telemetry_enabled_tune_ins"] = float64(got.Channels[0].TuneIns)
		rep.Derived["telemetry_enabled_waits_recorded"] = float64(got.Channels[0].Waits)
	}

	// Microbenchmarks. Each op runs a fixed batch (the family benchtime
	// can be 1x, far below timer resolution for nanosecond probes) and
	// the batch divides back out, exactly like TraceOverhead's probe.
	const probeBatch = 1000

	// One estimator update at the 10⁶-item scale it is built for.
	bigEst := costmon.NewEstimator(1<<20, costmon.DefaultHalfLife, costmon.DefaultShards)
	brObserve := benchLoop(func(i int) { bigEst.Observe(i & (1<<20 - 1)) }, probeBatch)
	rep.record("TelemetryOverhead/EstimatorObserve_x1000", brObserve)
	observeNs := nsPerOp(brObserve) / probeBatch

	// One realized-wait record on the live monitor.
	brRecord := benchLoop(func(i int) { mon.RecordWait(0, 0.25) }, probeBatch)
	rep.record("TelemetryOverhead/RecordWait_x1000", brRecord)
	recordNs := nsPerOp(brRecord) / probeBatch

	// The telemetry-off probe: the `mon != nil` branch writeBatch pays
	// per batch when no monitor is configured.
	benchNilMon = nil
	brDisabled := benchLoop(func(i int) {
		if benchNilMon != nil {
			benchNilMon.RecordWait(0, 1)
		}
		benchSinkInt++
	}, probeBatch)
	rep.record("TelemetryOverhead/DisabledProbe_x1000", brDisabled)
	disabledProbeNs := nsPerOp(brDisabled) / probeBatch

	// The telemetry-on steady-state probe: monitor present, first
	// delivery already recorded, so the bool load short-circuits.
	benchNilMon = mon
	delivered := true
	brEnabled := benchLoop(func(i int) {
		if benchNilMon != nil && !delivered {
			benchNilMon.RecordWait(0, 1)
		}
		benchSinkInt++
	}, probeBatch)
	rep.record("TelemetryOverhead/EnabledProbe_x1000", brEnabled)
	enabledProbeNs := nsPerOp(brEnabled) / probeBatch

	// Derived overheads. Per-subscriber one-time costs amortize over
	// the deliveries a subscriber receives in the window; the per-batch
	// probe is charged per delivery (an upper bound: one batch carries
	// many frames).
	if disabledNs > 0 && dc.subscribers > 0 && dc.deliveries > 0 {
		perSub := float64(dc.deliveries) / float64(dc.subscribers)
		rep.Derived["telemetry_overhead_enabled_pct"] =
			(enabledProbeNs + (observeNs+recordNs)/perSub) / disabledNs * 100
		rep.Derived["telemetry_overhead_disabled_pct"] = disabledProbeNs / disabledNs * 100
		// The raw window difference, informational only: two timed
		// windows on a shared machine are noisier than the analytic
		// bound, and the sign flips run to run.
		rep.Derived["telemetry_window_delta_pct"] = (enabledNs - disabledNs) / disabledNs * 100
	}
	rep.Derived["telemetry_enabled_delivery_ratio"] = ec.deliveryRatio
	return nil
}

// benchLoop wraps a probe in a fixed inner batch under
// testing.Benchmark; callers divide nsPerOp back out by the batch.
// The closure call adds a nanosecond or two per probe, which only
// makes the derived overhead bound more conservative.
func benchLoop(fn func(i int), batch int) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := 0; j < batch; j++ {
				fn(j)
			}
		}
	})
}
