package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"diversecast/internal/adapt"
	"diversecast/internal/airsim"
	"diversecast/internal/broadcast"
	"diversecast/internal/core"
	"diversecast/internal/obs"
	"diversecast/internal/obs/trace"
	"diversecast/internal/workload"
)

// Catalog and pipeline constants shared by every workload: the
// midpoints of the paper's Table 5 and its channel bandwidth.
const (
	theta      = 0.8
	phi        = 2.0
	bandwidth  = workload.PaperBandwidth
	driftSigma = 0.1
	// ciWidth is how many airsim CI95 half-widths the simulated mean
	// may sit from the analytic Eq. (2) wait. One half-width would fail
	// one honest run in twenty by construction; two fail about one in
	// twenty thousand.
	ciWidth = 2.0
	// catalogSeed fixes each workload's catalog: one Table 5 instance
	// per size. --seed drives the request trace and the drift epochs.
	// Across catalog seeds the CDS work of one N=10⁴ plan varies by
	// ±15% and its optimality gap by ±30%, which no regression bound
	// could absorb.
	catalogSeed = 1
	// measureReps is how many program copies each cycle replays the
	// trace on.
	measureReps = 20
)

// planSize is one plan workload's shape.
type planSize struct {
	n, k      int
	epochs    int // σ=0.1 drift epochs replanned per cycle
	requests  int // airsim trace length
	setupReps int // set-ups timed; setup_s is their median
	minCycles int
}

func planWide(toy bool) planSize {
	if toy {
		return planSize{n: 400, k: 16, epochs: 2, requests: 3000, setupReps: 3, minCycles: 2}
	}
	return planSize{n: 10000, k: 64, epochs: 4, requests: 100000, setupReps: 31, minCycles: 2}
}

func planNarrow(toy bool) planSize {
	if toy {
		return planSize{n: 400, k: 4, epochs: 2, requests: 3000, setupReps: 3, minCycles: 2}
	}
	return planSize{n: 10000, k: 8, epochs: 4, requests: 100000, setupReps: 31, minCycles: 2}
}

// cdsCounters reads the CDS work counters the core package keeps on
// the process-wide registry.
type cdsWork struct{ moves, scans, recomputed int64 }

func cdsCounters() cdsWork {
	s := obs.Default().Snapshot()
	return cdsWork{
		moves:      s.Counter("core_cds_moves_total"),
		scans:      s.Counter("core_cds_scans_total"),
		recomputed: s.Counter("core_cds_candidates_recomputed_total"),
	}
}

func (w cdsWork) minus(o cdsWork) cdsWork {
	return cdsWork{w.moves - o.moves, w.scans - o.scans, w.recomputed - o.recomputed}
}

// inputs are a plan workload's generated inputs.
type inputs struct {
	db     *core.Database
	drifts []*core.Database // one σ=0.1 drift of db per epoch
	reqs   []workload.Request
}

// generate builds the inputs: the fixed catalog, and from the seed the
// request trace and the chain of drifted profiles.
func generate(tr *trace.Tracer, seed int64, n, requests, epochs int, rate float64) (inputs, error) {
	var in inputs
	sp := tr.Start("workload_generate")
	db, err := workload.Config{N: n, Theta: theta, Phi: phi, Seed: catalogSeed}.Generate()
	if err != nil {
		sp.End()
		return in, fmt.Errorf("generating catalog: %w", err)
	}
	for ep := 1; ep <= epochs; ep++ {
		d, err := workload.Drift(db, driftSigma, seed*1009+int64(ep))
		if err != nil {
			sp.End()
			return in, fmt.Errorf("drifting epoch %d: %w", ep, err)
		}
		in.drifts = append(in.drifts, d)
	}
	sp.End()
	in.db = db
	if requests > 0 {
		sp = tr.Start("workload_trace")
		in.reqs, err = workload.GenerateTrace(db, workload.TraceConfig{Requests: requests, Rate: rate, Seed: seed*7919 + 1})
		sp.End()
		if err != nil {
			return in, fmt.Errorf("generating trace: %w", err)
		}
	}
	return in, nil
}

// cycleResult is what one plan cycle measured. The quality fields are
// deterministic for a fixed seed; the timings are not.
type cycleResult struct {
	planS      float64
	replanS    []float64
	work       cdsWork // cold CDS
	replanWork []cdsWork
	gap        float64
	churn      []float64
	access     float64
	accessP90  float64
	served     float64   // requests airsim served ÷ requests replayed
	measureNs  []float64 // thread CPU per simulated delivery, one per replay
}

// planCycle runs one cold plan of in.db, checks every output, (when
// in.reqs is set) replays the trace against the cold program, then
// replans the cold allocation for each drift epoch. Every epoch starts
// from the cold plan, so each is one σ=0.1 step from a CDS optimum and
// all epochs are samples of the same kind of work. Spans go to tr,
// which may be nil.
func planCycle(ck *checks, tr *trace.Tracer, in inputs, k int) (cycleResult, error) {
	var r cycleResult
	c0 := cdsCounters()
	root := tr.Start("plan")
	t0 := time.Now()
	sp := root.Child("core_drp")
	rough, err := core.NewDRP().Allocate(in.db, k)
	sp.End()
	if err != nil {
		return r, fmt.Errorf("DRP: %w", err)
	}
	sp = root.Child("core_cds")
	alloc, err := core.NewCDS().Refine(rough)
	sp.End()
	if err != nil {
		return r, fmt.Errorf("CDS: %w", err)
	}
	sp = root.Child("broadcast_build")
	prog, err := broadcast.Build(alloc, bandwidth, broadcast.ByPosition)
	sp.End()
	r.planS = since(t0)
	root.End()
	if err != nil {
		return r, fmt.Errorf("Build: %w", err)
	}
	r.work = cdsCounters().minus(c0)

	ck.noErr(rough.Validate(), "DRP allocation")
	ck.noErr(alloc.Validate(), "CDS allocation")
	ck.noErr(prog.Validate(), "cold program")
	ck.ok(core.Cost(alloc) <= core.Cost(rough), "CDS cost %v above DRP cost %v", core.Cost(alloc), core.Cost(rough))
	r.gap = core.Cost(alloc)/lowerBound(in.db, k) - 1
	ck.ok(r.gap >= 0, "allocation cost below the Cauchy–Schwarz bound (gap %v)", r.gap)

	if len(in.reqs) > 0 {
		if err := measureAccess(ck, tr, &r, alloc, prog, in.reqs); err != nil {
			return r, err
		}
	}

	for ep, d := range in.drifts {
		c0 := cdsCounters()
		root := tr.Start("replan")
		t0 := time.Now()
		sp := root.Child("adapt_replan")
		next, churn, err := adapt.Replan(alloc, d)
		sp.End()
		if err != nil {
			return r, fmt.Errorf("Replan epoch %d: %w", ep+1, err)
		}
		sp = root.Child("broadcast_build")
		p, err := broadcast.Build(next, bandwidth, broadcast.ByPosition)
		sp.End()
		r.replanS = append(r.replanS, since(t0))
		root.End()
		if err != nil {
			return r, fmt.Errorf("Build epoch %d: %w", ep+1, err)
		}
		r.replanWork = append(r.replanWork, cdsCounters().minus(c0))
		ck.noErr(next.Validate(), "replanned allocation")
		ck.noErr(p.Validate(), "replanned program")
		carried, err := core.NewAllocation(d, k, alloc.Assignment())
		if ck.noErr(err, "carried allocation") {
			ck.ok(core.Cost(next) <= core.Cost(carried), "replan cost %v above carried cost %v", core.Cost(next), core.Cost(carried))
		}
		r.churn = append(r.churn, churn.MovedMass)
	}
	return r, nil
}

// measureAccess replays the trace against the cold program with
// airsim, cross-checks the simulated mean against the analytic Eq. (2)
// wait and against a per-request recomputation, and records the mean
// and p90 access time.
func measureAccess(ck *checks, tr *trace.Tracer, r *cycleResult, alloc *core.Allocation, prog *broadcast.Program, reqs []workload.Request) error {
	// airsim runs on the calling goroutine; pinning it to its thread
	// lets the thread's CPU clock time the replay alone, without the
	// garbage collector's background work on other threads. A replay
	// takes some 10 ms of memory-bound lookups, and on a shared 2-vCPU
	// Xeon the cost of one varied from 60 to 240 ns per request, within
	// one process and between freshly built copies of one program.
	// Each cycle replays the trace on several fresh copies, and the run
	// reports the fastest replay: the one least disturbed. In eight
	// trials of 30 replays the fastest read 60–63 ns seven times.
	var res *airsim.Result
	for i := 0; i < measureReps; i++ {
		p := prog
		if i > 0 {
			var err error
			if p, err = broadcast.Build(alloc, bandwidth, broadcast.ByPosition); err != nil {
				return fmt.Errorf("Build: %w", err)
			}
		}
		runtime.LockOSThread()
		sp := tr.Start("airsim_measure")
		cpu0 := threadCPUSeconds()
		again, err := airsim.Measure(p, reqs)
		cpu1 := threadCPUSeconds()
		sp.End()
		runtime.UnlockOSThread()
		if err != nil {
			return fmt.Errorf("airsim: %w", err)
		}
		if res != nil {
			ck.ok(math.Float64bits(again.Wait.Mean) == math.Float64bits(res.Wait.Mean) && again.Wait.N == res.Wait.N,
				"airsim replays of one allocation disagree: mean %v then %v", res.Wait.Mean, again.Wait.Mean)
		}
		res = again
		r.measureNs = append(r.measureNs, (cpu1-cpu0)*1e9/float64(len(reqs)))
	}
	r.access = res.Wait.Mean
	want := core.WaitingTime(alloc, bandwidth)
	ck.ok(math.Abs(res.Wait.Mean-want) <= ciWidth*res.Wait.CI95,
		"airsim mean %v is %.3g CI95 half-widths from the Eq. 2 wait %v", res.Wait.Mean, math.Abs(res.Wait.Mean-want)/res.Wait.CI95, want)
	r.served = float64(res.Requests) / float64(len(reqs))
	ck.ok(res.Requests == len(reqs), "airsim served %d of %d requests", res.Requests, len(reqs))

	waits := make([]float64, len(reqs))
	for i, q := range reqs {
		w, err := prog.WaitFor(q.Pos, q.Time)
		if err != nil {
			return fmt.Errorf("WaitFor request %d: %w", i, err)
		}
		waits[i] = w
	}
	m := mean(waits)
	ck.ok(math.Abs(m-res.Wait.Mean) <= 1e-9*res.Wait.Mean, "per-request waits average %v, airsim reports %v", m, res.Wait.Mean)
	r.accessP90 = p90(waits)
	return nil
}

// lowerBound is the Cauchy–Schwarz bound on the grouping cost of any
// K-channel allocation: each group has F·Z ≥ (Σ_{j∈group} √(f_j z_j))²,
// and splitting Σ_j √(f_j z_j) over K groups costs at least its square
// over K.
func lowerBound(db *core.Database, k int) float64 {
	var s float64
	for _, it := range db.Items() {
		s += math.Sqrt(it.Freq * it.Size)
	}
	return s * s / float64(k)
}

// sameQuality reports whether two cycles produced bit-identical
// quality numbers — the determinism a fixed seed owes.
func sameQuality(a, b cycleResult) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !same(a.gap, b.gap) || !same(a.access, b.access) || !same(a.accessP90, b.accessP90) || a.work != b.work || len(a.churn) != len(b.churn) {
		return false
	}
	for i := range a.churn {
		if !same(a.churn[i], b.churn[i]) || a.replanWork[i] != b.replanWork[i] {
			return false
		}
	}
	return true
}

// planCycles repeats planCycle until the window has passed (and at
// least min times). In a traced run every other cycle is traced, so
// the traced and untraced walls give the tracing overhead.
func planCycles(e *env, in inputs, k, minCycles int, window time.Duration) (all []cycleResult, walls [2][]float64, err error) {
	start := time.Now()
	for c := 0; c < minCycles || time.Since(start) < window; c++ {
		var tr *trace.Tracer
		traced := e.traced() && c%2 == 0
		if traced {
			tr = e.tr
		}
		// Each cycle starts from a collected heap, so no cycle pays for
		// the garbage of the one before it.
		runtime.GC()
		t0 := time.Now()
		r, err := planCycle(e.ck, tr, in, k)
		if err != nil {
			return nil, walls, err
		}
		if traced {
			walls[1] = append(walls[1], since(t0))
		} else {
			walls[0] = append(walls[0], since(t0))
		}
		if len(all) > 0 {
			e.ck.ok(sameQuality(all[0], r), "cycle %d's allocation quality differs from cycle 0's for the same seed", c)
		}
		all = append(all, r)
	}
	return all, walls, nil
}

// reportPlan fills the plan-side metrics shared by every workload.
// Timings come from untraced cycles only and are the q-quantile of
// their samples. Quality comes from the first `distinct` cycles, which
// between them replan every drift epoch once; the cold plan's from the
// first.
//
// The plan workloads report lower quartiles (q=0.25). Other tenants of
// a shared machine only ever add time to a cycle, in bursts of
// seconds; across five seeds on a 2-vCPU Xeon the lower quartile of
// plan-narrow's cycles spread 4.2% where the median spread 6.9%, and
// it is not carried by one lucky cycle as the minimum would be.
func reportPlan(e *env, all []cycleResult, distinct int, q float64) {
	var plans, replans []float64
	for i, r := range all {
		if e.traced() && i%2 == 0 {
			continue
		}
		plans = append(plans, r.planS)
		replans = append(replans, r.replanS...)
	}
	first := all[0]
	var churn, moves []float64
	for _, r := range all[:min(distinct, len(all))] {
		churn = append(churn, r.churn...)
		for _, w := range r.replanWork {
			moves = append(moves, float64(w.moves))
		}
	}
	e.set("plan_s", quantile(plans, q))
	e.set("replan_s", quantile(replans, q))
	e.set("alloc_gap", first.gap)
	e.set("replan_churn", mean(churn))
	fmt.Fprintf(e.log, "perfbench: %d cycles: plan_s q25 %.4g median %.4g p90 %.4g (n=%d), replan_s q25 %.4g median %.4g p90 %.4g (n=%d), alloc_gap %.6g, replan_churn %.6g over %d epochs\n",
		len(all), quantile(plans, 0.25), median(plans), p90(plans), len(plans), quantile(replans, 0.25), median(replans), p90(replans), len(replans), first.gap, mean(churn), len(churn))

	e.set("core.cds_moves", float64(first.work.moves))
	e.set("core.cds_scans", float64(first.work.scans))
	e.set("core.cds_recomputed_per_move", float64(first.work.recomputed)/math.Max(float64(first.work.moves), 1))
	e.set("adapt.replan_moves", mean(moves))
	if e.traced() {
		s := newSpanStats(e.tr.Snapshot())
		checkCoverage(e, s)
		cds := median(s.seconds("core_cds"))
		e.set("core.drp_s", median(s.seconds("core_drp")))
		e.set("core.cds_s", cds)
		e.set("core.cds_us_per_move", cds*1e6/math.Max(float64(first.work.moves), 1))
		e.set("broadcast.build_s", median(s.seconds("broadcast_build")))
		e.set("adapt.replan_cds_s", median(s.seconds("adapt_replan")))
		e.set("airsim.measure_s", median(s.seconds("airsim_measure")))
		e.set("workload.generate_s", median(s.seconds("workload_generate")))
		e.set("workload.trace_s", median(s.seconds("workload_trace")))
	}
}

// runPlan is the plan-wide and plan-narrow workload: no network code
// runs; DRP, CDS, Build, Replan and airsim do all the work.
func runPlan(e *env, sz planSize) error {
	var setup []float64
	var in inputs
	for i := 0; i < sz.setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		in, err = generate(e.tr, e.seed, sz.n, sz.requests, sz.epochs, 1)
		if err != nil {
			return err
		}
		setup = append(setup, since(t0))
	}
	e.set("setup_s", median(setup))

	all, walls, err := planCycles(e, in, sz.k, sz.minCycles, e.window)
	if err != nil {
		return err
	}
	reportPlan(e, all, 1, 0.25)
	if e.traced() {
		e.set("trace.overhead_pct", (median(walls[1])/median(walls[0])-1)*100)
	}

	first := all[0]
	var measure []float64
	for i, r := range all {
		if !(e.traced() && i%2 == 0) {
			measure = append(measure, r.measureNs...)
		}
	}
	e.set("access_time_s", first.access)
	e.set("access_time_p90_s", first.accessP90)
	e.set("cpu_per_delivery_ns", slices.Min(measure))
	e.set("delivery_ratio", first.served)
	setIdle(e, "netcast.", "costmon.", "gen.")
	return nil
}

// setIdle reports the per-layer metrics of layers a workload never
// calls as zero: the work they did here.
func setIdle(e *env, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				e.set(d.name, 0)
			}
		}
	}
}
