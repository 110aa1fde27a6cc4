// Corpus for obsnames: metric-registration conventions.
package a

import (
	"strconv"

	"obs"
	"trace"
)

const goodName = "frames_sent_total"

// Clean: literal snake_case names, registered once at startup with
// variability in labels — the netcast casterMetrics pattern.
func registerGood(r *obs.Registry, channel int) (*obs.Counter, *obs.Gauge, *obs.Histogram) {
	ch := strconv.Itoa(channel)
	c := r.Counter("netcast_frames_sent_total", "frames enqueued", "channel", ch)
	g := r.Gauge("netcast_subscribers", "current subscribers", "channel", ch)
	h := r.Histogram("cds_refine_seconds", "refinement latency", 0, 10, 100)
	return c, g, h
}

// Clean: a named constant is still a compile-time constant.
func registerConst(r *obs.Registry) *obs.Counter {
	return r.Counter(goodName, "frames enqueued")
}

// Flagged: a dynamically built name forks a new series per distinct
// value instead of labeling one series.
func registerDynamic(r *obs.Registry, channel int) *obs.Counter {
	return r.Counter("frames_"+strconv.Itoa(channel), "per-channel frames") // want `not a compile-time string constant`
}

// Flagged: non-snake-case names break exposition-format consumers.
func registerCamel(r *obs.Registry) *obs.Counter {
	return r.Counter("framesSentTotal", "frames enqueued") // want `not snake_case`
}

// Flagged: leading underscore / uppercase.
func registerBadShapes(r *obs.Registry) {
	r.Gauge("_hidden", "leading underscore") // want `not snake_case`
	r.Counter("Frames_Total", "uppercase")   // want `not snake_case`
}

// Flagged: registration inside a loop pays the registry lock per
// iteration; resolve handles once at startup.
func registerInLoop(r *obs.Registry, n int) {
	for i := 0; i < n; i++ {
		r.Counter("netcast_ticks_total", "ticks").Inc() // want `inside a loop`
	}
}

// Flagged: range loops count too.
func registerInRange(r *obs.Registry, chans []int) {
	for range chans {
		r.Gauge("netcast_subscribers", "subs") // want `inside a loop`
	}
}

// Clean: a closure defined inside a loop registers when called, not
// per loop iteration.
func registerClosure(r *obs.Registry, n int) []func() *obs.Counter {
	var fns []func() *obs.Counter
	for i := 0; i < n; i++ {
		fns = append(fns, func() *obs.Counter {
			return r.Counter("lazy_total", "registered lazily")
		})
	}
	return fns
}

// Clean: worker-pool gauges registered once when the pool spins up —
// the genetic/experiments evaluation-fabric pattern. Pool size is a
// label value, never part of the name.
func registerWorkerPool(r *obs.Registry, workers int) (*obs.Gauge, *obs.Gauge) {
	w := r.Gauge("genetic_eval_workers", "fitness workers", "pool", strconv.Itoa(workers))
	q := r.Gauge("genetic_eval_queue_depth", "pending fitness batches")
	return w, q
}

// Flagged: baking the pool size into the gauge name forks one series
// per configuration instead of labeling a single series.
func registerWorkerPoolDynamic(r *obs.Registry, workers int) *obs.Gauge {
	return r.Gauge("eval_workers_"+strconv.Itoa(workers), "fitness workers") // want `not a compile-time string constant`
}

// Clean: the parallel/batched CDS sweep counters — compile-time
// snake_case names registered once at package init and flushed once
// per refinement, never inside the sweep loops.
func registerCDSEngines(r *obs.Registry) (*obs.Counter, *obs.Counter) {
	sweeps := r.Counter("core_cds_parallel_sweeps_total", "sharded candidate sweeps")
	batched := r.Counter("core_cds_batched_moves_total", "moves applied in batches")
	return sweeps, batched
}

// Flagged: baking the worker count into the sweep counter name forks
// one series per pool width; width belongs in a label.
func registerCDSPerWorker(r *obs.Registry, workers int) *obs.Counter {
	return r.Counter("core_cds_parallel_sweeps_total_"+strconv.Itoa(workers), "per-width sweeps") // want `not a compile-time string constant`
}

// Flagged: flushing per shard inside the reduction loop pays the
// registry lock per shard; accumulate locally and flush once.
func registerCDSInReduce(r *obs.Registry, shards int) {
	for s := 0; s < shards; s++ {
		r.Counter("core_cds_batched_moves_total", "moves applied in batches").Inc() // want `inside a loop`
	}
}

// Clean: the costmon per-channel instrument bundle — one helper
// registering compile-time names with the channel as a label, called
// per channel at SetProgram time (not syntactically in a loop at the
// registration sites).
type costmonChanInstruments struct {
	tuneIns *obs.Counter
	waits   *obs.Histogram
	regret  *obs.Gauge
}

func registerCostmonChannel(r *obs.Registry, channel int, hi float64, bins int) costmonChanInstruments {
	ch := strconv.Itoa(channel)
	return costmonChanInstruments{
		tuneIns: r.Counter("costmon_tune_ins_total", "tune-ins attributed to the channel", "channel", ch),
		waits:   r.Histogram("costmon_wait_seconds", "realized waits", 0, hi, bins, "channel", ch),
		regret:  r.Gauge("costmon_cost_regret_us", "realized minus predicted mean wait", "channel", ch),
	}
}

// Flagged: baking the channel index into the name forks one series
// per channel; the index belongs in a label like every other
// per-channel instrument.
func registerCostmonDynamic(r *obs.Registry, channel int) *obs.Counter {
	return r.Counter("costmon_tune_ins_"+strconv.Itoa(channel), "per-channel tune-ins") // want `not a compile-time string constant`
}

// Flagged: re-registering the drift gauge on every sampler pass pays
// the registry lock per tick; resolve the handle at monitor
// construction.
func registerCostmonPerSample(r *obs.Registry, samples int) {
	for i := 0; i < samples; i++ {
		r.Gauge("costmon_drift_score_milli", "frequency drift") // want `inside a loop`
	}
}

// Clean: a Counter method on an unrelated type is not a
// registration.
type shelf struct{}

func (shelf) Counter(name string) int { return len(name) }

func notARegistry(s shelf) int {
	return s.Counter("whatever you LIKE")
}

// ---- trace span/event naming ----

const spanRefine = "cds_refine"

// Clean: named snake_case constants for span and event names, with
// variability carried in attrs — the core/netcast instrumentation
// pattern. Spans inside loops are fine: a span per move is the point.
func traceGood(tr *trace.Tracer, moves int) {
	span := tr.Start(spanRefine, trace.Int("k", 5))
	for i := 0; i < moves; i++ {
		mv := span.Child("cds_move", trace.Int("pos", int64(i)))
		mv.Event("queue_peek")
		mv.End()
	}
	span.End()
	tr.Event("run_done")
	tr.EventAt("virtual_tick", 1000)
	span.ChildAt("broadcast_cycle", 2000).End()
}

// Flagged: a dynamically built span name splinters the timeline into
// per-value variants nothing can correlate.
func traceDynamic(tr *trace.Tracer, alg string) {
	tr.Start("alloc_" + alg).End() // want `not a compile-time string constant`
}

// Flagged: events too, on both Tracer and Span.
func traceDynamicEvent(tr *trace.Tracer, ch int) {
	span := tr.Start(spanRefine)
	span.Event(pick(ch))            // want `not a compile-time string constant`
	tr.EventAt(pick(ch), 500)       // want `not a compile-time string constant`
	span.Child(pick(ch)).End()      // want `not a compile-time string constant`
	span.ChildAt(pick(ch), 1).End() // want `not a compile-time string constant`
	span.End()
}

func pick(i int) string { return "ch" }

// Flagged: non-snake-case names break timeline consumers keyed on
// canonical names.
func traceCamel(tr *trace.Tracer) {
	tr.Start("cdsRefine").End()      // want `not snake_case`
	tr.Event("Run-Done")             // want `not snake_case`
	tr.Start(spanRefine).Event("_x") // want `not snake_case`
}

// Clean: a Start method on an unrelated type is not a trace call.
type engine struct{}

func (engine) Start(name string) int { return len(name) }

func notATracer(e engine) int {
	return e.Start("whatever you LIKE")
}

// Seed obsnames-2 (internal/analysis/testdata/mutations): the resync
// event's name constant is respelled in camelCase. Exporters and the
// trace tests correlate records by name, but no test resyncs a
// subscriber with tracing on, so only this pass sees the split.
const eventResync = "netcastResync"

func resync(span trace.Span, skipped int64) {
	span.Event(eventResync, trace.Int("skipped", skipped)) // want `not snake_case`
}
