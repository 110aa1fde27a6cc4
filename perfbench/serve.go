package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"diversecast/internal/broadcast"
	"diversecast/internal/core"
	"diversecast/internal/netcast"
	"diversecast/internal/obs"
	"diversecast/internal/obs/costmon"
	"diversecast/internal/obs/trace"
)

// serveSize is the serve workload's shape.
type serveSize struct {
	n, k        int
	timeScale   float64 // wall seconds per virtual second
	subscribers int     // in-process subscribers attached with Server.Attach
	rate        float64 // item requests per wall second
	setupReps   int     // set-ups timed; setup_s is their median
	epochs      int     // drift epochs generated
	// cycleEpochs is how many of them one plan cycle replans: cycle c
	// takes block c mod (epochs/cycleEpochs), so short cycles sample
	// the machine often and the first blocks still cover every epoch.
	cycleEpochs int
	// planEvery is the period of the plan cycles run during the window
	// (see planSampler).
	planEvery time.Duration
	// cpuEvery is the length of the sub-windows cpu_per_delivery_ns is
	// the median over.
	cpuEvery time.Duration
	// startOffset is the wall time from Serve's return to the first
	// instant a request can fall due: set-up must finish inside it.
	startOffset time.Duration
	// grace is how long after the window the sinks are read, so frames
	// of the window still in flight at its close can land.
	grace   time.Duration
	timeout time.Duration // per request: dial, handshake and wait
}

func serveDefaults(toy bool) serveSize {
	s := serveSize{
		n: 120, k: 6, timeScale: 0.005, subscribers: 1000, rate: 5,
		setupReps: 31, epochs: 200, cycleEpochs: 50, planEvery: 250 * time.Millisecond, cpuEvery: time.Second,
		startOffset: time.Second, grace: 250 * time.Millisecond, timeout: 10 * time.Second,
	}
	if toy {
		s.subscribers, s.rate, s.setupReps, s.epochs, s.cycleEpochs = 60, 20, 2, 8, 4
		s.planEvery, s.cpuEvery, s.startOffset = 100*time.Millisecond, 250*time.Millisecond, 300*time.Millisecond
	}
	return s
}

// served is one started broadcast: the planned program, its server with
// the subscriber population attached, and the monitor watching it.
type served struct {
	in      inputs
	alloc   *core.Allocation
	prog    *broadcast.Program
	srv     *netcast.Server
	reg     *obs.Registry
	mon     *costmon.Monitor
	anchor  time.Time // when Serve returned: every channel's cycle 0 starts here
	sinks   [][]*sink // per channel
	bcast   []*obs.Counter
	attachS float64 // Serve plus population Attach
}

// setupServe generates the inputs, plans them, starts the server with
// its cost monitor and attaches the subscriber population.
func setupServe(e *env, sz serveSize, requests int) (*served, error) {
	in, err := generate(e.tr, e.seed, sz.n, requests, sz.epochs, sz.rate*sz.timeScale)
	if err != nil {
		return nil, err
	}
	rough, err := core.NewDRP().Allocate(in.db, sz.k)
	if err != nil {
		return nil, fmt.Errorf("DRP: %w", err)
	}
	alloc, err := core.NewCDS().Refine(rough)
	if err != nil {
		return nil, fmt.Errorf("CDS: %w", err)
	}
	prog, err := broadcast.Build(alloc, bandwidth, broadcast.ByPosition)
	if err != nil {
		return nil, fmt.Errorf("Build: %w", err)
	}
	s := &served{in: in, alloc: alloc, prog: prog, reg: obs.NewRegistry(), sinks: make([][]*sink, sz.k)}
	s.mon, err = costmon.New(costmon.Config{Items: sz.n, Wait: costmon.WaitFirstDelivery, Registry: s.reg})
	if err != nil {
		return nil, fmt.Errorf("costmon: %w", err)
	}
	if err := s.mon.SetProgram(prog, in.db.Frequencies()); err != nil {
		return nil, fmt.Errorf("costmon: %w", err)
	}

	sp := e.tr.Start("netcast_attach")
	t0 := time.Now()
	s.srv, err = netcast.Serve("127.0.0.1:0", netcast.ServerConfig{
		Program: prog, TimeScale: sz.timeScale, Metrics: s.reg, CostMonitor: s.mon,
	})
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("Serve: %w", err)
	}
	s.anchor = time.Now()
	for c := 0; c < sz.k; c++ {
		//diverselint:ignore obsnames looks up the server's existing per-channel counter once per channel at set-up, the handle the sinks are anchored with
		s.bcast = append(s.bcast, s.reg.Counter("netcast_frames_broadcast_total", "", "channel", strconv.Itoa(c)))
	}
	for i := 0; i < sz.subscribers; i++ {
		c := i % sz.k
		sk := &sink{}
		if err := s.srv.Attach(sk, c); err != nil {
			sp.End()
			return nil, errors.Join(fmt.Errorf("Attach: %w", err), s.srv.Close())
		}
		sk.first = s.bcast[c].Value()
		s.sinks[c] = append(s.sinks[c], sk)
	}
	s.attachS = since(t0)
	sp.End()
	return s, nil
}

// reqOut is one request's outcome.
type reqOut struct {
	ok        bool
	traced    bool
	access    float64 // virtual s, due time to last byte
	eq1       float64 // virtual s, core.ItemWaitingTime of the item
	tunedWait float64 // virtual s, the schedule's exact wait from the instant the client had tuned in
	lateness  float64 // wall s, due time to dial
	inflightS float64 // wall s, dial to last byte
}

// request issues one item request: tune in declaring the item, wait
// for its next complete transmission and verify the payload bytes.
func (s *served) request(e *env, sz serveSize, tr *trace.Tracer, n, pos int, due time.Time, virtual float64) reqOut {
	out := reqOut{traced: tr != nil}
	start := time.Now()
	out.lateness = start.Sub(due).Seconds()
	ch, _, ok := s.prog.Locate(pos)
	if !e.ck.ok(ok, "request %d: item at position %d is not scheduled", n, pos) {
		return out
	}
	id := s.in.db.Item(pos).ID
	out.eq1 = core.ItemWaitingTime(s.alloc, pos, bandwidth)

	root := tr.Start("request", trace.Int("n", int64(n)), trace.Int("item", int64(id)), trace.Int("channel", int64(ch)))
	defer root.End()
	sp := root.Child("netcast_tune")
	cl, err := netcast.TuneItem(s.srv.Addr().String(), ch, id, sz.timeout)
	sp.End()
	if !e.ck.noErr(err, fmt.Sprintf("request %d: tune", n)) {
		return out
	}
	defer cl.Close()
	tuned := virtual + time.Since(due).Seconds()/sz.timeScale
	if out.tunedWait, err = s.prog.WaitFor(pos, tuned); !e.ck.noErr(err, "schedule wait") {
		return out
	}
	sp = root.Child("netcast_item_wait")
	rec, _, err := cl.WaitForItem(id, sz.timeout)
	sp.End()
	if !e.ck.noErr(err, fmt.Sprintf("request %d: wait for item %d", n, id)) {
		return out
	}
	if e.hook.corruptRequest == n+1 && len(rec.Payload) > 0 {
		rec.Payload[0] ^= 0xff
	}
	sp = root.Child("netcast_verify")
	err = netcast.VerifyPayload(rec)
	sp.End()
	if !e.ck.noErr(err, fmt.Sprintf("request %d: payload", n)) {
		return out
	}
	out.ok = true
	out.access = rec.EndAt.Sub(due).Seconds() / sz.timeScale
	out.inflightS = rec.EndAt.Sub(start).Seconds()
	return out
}

// fanoutCounters sums the server's fan-out counters over channels.
type fanoutCounters struct {
	sent, bytes, backpressure int64
	lag                       obs.HistogramSnapshot
	tuneIns                   int64
}

func (s *served) counters(k int) fanoutCounters {
	snap := s.reg.Snapshot()
	var f fanoutCounters
	for c := 0; c < k; c++ {
		l := `{channel="` + strconv.Itoa(c) + `"}`
		f.sent += snap.Counter("netcast_frames_sent_total" + l)
		f.bytes += snap.Counter("netcast_bytes_sent_total" + l)
		f.backpressure += snap.Counter("netcast_resyncs_total"+l) +
			snap.Counter("netcast_lag_drops_total"+l) +
			snap.Counter("netcast_cycles_skipped_total"+l)
		f.tuneIns += snap.Counter("costmon_tune_ins_total" + l)
		f.lag = addHist(f.lag, snap.Histograms["netcast_subscriber_lag_frames"+l], 1)
	}
	return f
}

// addHist returns a + sign·b for histograms with identical bounds.
func addHist(a, b obs.HistogramSnapshot, sign int64) obs.HistogramSnapshot {
	if a.Bins == nil {
		a = obs.HistogramSnapshot{Lo: b.Lo, Hi: b.Hi, Bins: make([]int64, len(b.Bins))}
	}
	for i := range b.Bins {
		a.Bins[i] += sign * b.Bins[i]
	}
	a.Under += sign * b.Under
	a.Over += sign * b.Over
	a.Count += sign * b.Count
	return a
}

// histQuantile interpolates the q-quantile within histogram bins, as
// obs.Histogram.Quantile does.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count <= 0 || len(h.Bins) == 0 {
		return 0
	}
	target := q * float64(h.Count)
	cum := float64(h.Under)
	if cum >= target {
		return h.Lo
	}
	width := (h.Hi - h.Lo) / float64(len(h.Bins))
	for i, c := range h.Bins {
		if next := cum + float64(c); next >= target && c > 0 {
			return h.Lo + (float64(i)+(target-cum)/float64(c))*width
		}
		cum += float64(c)
	}
	return h.Hi
}

// runServe is the serve workload: netcast, wire and costmon do all the
// work of the measured window; core plans 120 items in set-up.
func runServe(e *env, sz serveSize) error {
	// The trace is an input: one request every 1/rate wall seconds on
	// average, generated in virtual time, kept to those due inside the
	// window.
	requests := int(math.Ceil(sz.rate*e.window.Seconds()*1.5)) + 16
	var setup, attach []float64
	var s *served
	for i := 0; i < sz.setupReps; i++ {
		if s != nil {
			if err := s.srv.Close(); err != nil {
				return fmt.Errorf("closing set-up server: %w", err)
			}
		}
		runtime.GC() // each set-up starts from a collected heap
		t0 := time.Now()
		var err error
		s, err = setupServe(e, sz, requests)
		if err != nil {
			return err
		}
		setup = append(setup, since(t0))
		attach = append(attach, s.attachS*1e3)
	}
	defer s.srv.Close()
	e.set("setup_s", median(setup))
	e.set("netcast.attach_ms", median(attach))

	var due []time.Time
	var virtual []float64
	for _, q := range s.in.reqs {
		wall := time.Duration(q.Time * sz.timeScale * float64(time.Second))
		if wall >= e.window {
			break
		}
		due = append(due, s.anchor.Add(sz.startOffset+wall))
		virtual = append(virtual, sz.startOffset.Seconds()/sz.timeScale+q.Time)
	}
	if len(due) == 0 {
		return errNoWork
	}

	// The window: request due times are anchored to the server's
	// start, so each request's phase in the broadcast cycle comes from
	// the seed. The generator is open-loop: a request is issued at its
	// due time unless nproc requests are already in flight, and it is
	// timed from its due time either way.
	nproc := runtime.NumCPU()
	sem := make(chan struct{}, nproc)
	var inflight, maxInflight atomic.Int64
	outs := make([]reqOut, len(due))
	var wg sync.WaitGroup
	w0 := s.anchor.Add(sz.startOffset)
	e.ck.ok(time.Now().Before(w0), "set-up overran the %v start offset", sz.startOffset)
	time.Sleep(time.Until(w0))
	lo := make([]int64, sz.k)
	for c := range lo {
		lo[c] = s.bcast[c].Value()
	}
	f0, cpu0, t0 := s.counters(sz.k), cpuSeconds(), time.Now()
	stop := make(chan struct{})
	plans := startPlanSampler(e, s.in, sz, stop)
	usage := startUsageSampler(s, sz.k, plans, sz.cpuEvery, stop)
	for i := range due {
		time.Sleep(time.Until(due[i]))
		sem <- struct{}{}
		if n := inflight.Add(1); n > maxInflight.Load() {
			maxInflight.Store(n)
		}
		var tr *trace.Tracer
		if e.traced() && i%2 == 0 {
			tr = e.tr
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = s.request(e, sz, tr, i, s.in.reqs[i].Pos, due[i], virtual[i])
			inflight.Add(-1)
			<-sem
		}(i)
	}
	time.Sleep(time.Until(w0.Add(e.window)))
	cpu1, wall, planCPU := cpuSeconds(), since(t0), plans.cpuSeconds()
	f1 := s.counters(sz.k)
	hi := make([]int64, sz.k)
	for c := range hi {
		hi[c] = s.bcast[c].Value()
	}
	close(stop)
	wg.Wait()
	<-plans.done
	<-usage.done
	if plans.err != nil {
		return plans.err
	}
	time.Sleep(sz.grace)

	var got, want, malformed int64
	for c, sinks := range s.sinks {
		for _, sk := range sinks {
			g, w := sk.window(lo[c], hi[c])
			got, want = got+g, want+w
			malformed += sk.malformed.Load()
		}
	}
	e.ck.ok(malformed == 0, "%d sink writes were not exactly one frame", malformed)
	e.ck.ok(want > 0 && got <= want, "delivery accounting: %d of %d frames", got, want)
	e.ck.ok(maxInflight.Load() <= int64(nproc), "%d requests in flight, cap %d", maxInflight.Load(), nproc)

	var access, lateness, eq1, tunedWait, busy []float64
	var tracedExcess, untracedExcess []float64
	for _, o := range outs {
		if !o.ok {
			continue
		}
		access = append(access, o.access)
		lateness = append(lateness, o.lateness*1e6)
		eq1 = append(eq1, o.eq1)
		tunedWait = append(tunedWait, o.tunedWait)
		busy = append(busy, o.inflightS)
		if o.traced {
			tracedExcess = append(tracedExcess, o.access-o.tunedWait)
		} else {
			untracedExcess = append(untracedExcess, o.access-o.tunedWait)
		}
	}
	if len(access) == 0 {
		return errNoWork
	}

	// costmon saw every request tune in, and nothing else during the
	// window: the population attached in set-up.
	f2 := s.counters(sz.k)
	e.ck.ok(f2.tuneIns-f0.tuneIns == int64(len(due)), "costmon counted %d tune-ins for %d requests", f2.tuneIns-f0.tuneIns, len(due))
	var reportMs []float64
	var rep costmon.Report
	for i := 0; i < 5; i++ {
		sp := e.tr.Start("costmon_report")
		t := time.Now()
		rep = s.mon.Report()
		reportMs = append(reportMs, since(t)*1e3)
		sp.End()
	}
	var regret, waits float64
	for _, ch := range rep.Channels {
		regret += ch.RegretPct * float64(ch.Waits)
		waits += float64(ch.Waits)
	}

	// A request's access time is its wait from tune-in — set by the
	// phase of the cycle at that instant — plus what it spent beyond
	// that wait: generator lateness, dial and handshake, delivery. The
	// seed picks the phases, and raw statistics of a run's few hundred
	// requests spread 13–20% (mean) and 16–39% (p90) across seeds. The
	// phase at tune-in is uniform, so the benchmark reports the exact
	// wait distribution of the program combined with the measured
	// excess of every request: the same mean and p90, without the
	// phases' sampling noise.
	model := newWaitModel(s.prog, s.in.db.Frequencies())
	eq2 := core.WaitingTime(s.alloc, bandwidth)
	e.ck.ok(math.Abs(model.mean-eq2) <= 1e-9*eq2, "schedule mean wait %v, Eq. 2 %v", model.mean, eq2)
	excess := make([]float64, len(access))
	for i := range access {
		excess[i] = access[i] - tunedWait[i]
	}
	sent := f1.sent - f0.sent
	serveCPU := cpu1 - cpu0 - planCPU
	perFrame := usage.perFrameNs()
	if len(perFrame) == 0 {
		return errNoWork
	}
	e.set("access_time_s", model.mean+mean(excess))
	e.set("access_time_p90_s", model.quantile(0.9, excess))
	e.set("cpu_per_delivery_ns", median(perFrame))
	e.set("delivery_ratio", float64(got)/math.Max(float64(want), 1))

	e.set("netcast.wait_ratio", sumF(access)/sumF(eq1))
	e.set("netcast.frames_sent_per_s", float64(sent)/wall)
	e.set("netcast.bytes_sent_per_s", float64(f1.bytes-f0.bytes)/wall)
	e.set("netcast.cpu_cores", serveCPU/wall)
	e.set("netcast.backpressure", float64(f1.backpressure-f0.backpressure))
	e.set("netcast.lag_frames_p99", histQuantile(addHist(f1.lag, f0.lag, -1), 0.99))
	e.set("costmon.tune_ins", float64(f2.tuneIns-f0.tuneIns))
	e.set("costmon.regret_pct", regret/math.Max(waits, 1))
	e.set("costmon.report_ms", median(reportMs))
	e.set("gen.lateness_p90_us", p90(lateness))
	fmt.Fprintf(e.log, "perfbench: serve: %d requests due in %.1fs, %d ok; realized access mean %.4g p50 %.4g p90 %.4g virtual s (n=%d); scheduled from tune-in mean %.4g p90 %.4g; exact mean %.4g p90 %.4g; excess mean %.4g p90 %.4g; realized/Eq.1 %.4f\n",
		len(due), wall, len(access), mean(access), median(access), p90(access), len(access), mean(tunedWait), p90(tunedWait), model.mean, model.quantile(0.9, []float64{0}), mean(excess), p90(excess), sumF(access)/sumF(eq1))
	fmt.Fprintf(e.log, "perfbench: serve: in flight max %d (cap %d) mean %.3f; lateness p50 %.0fus p90 %.0fus; delivery %d/%d frames; cpu %.3f cores serving + %.3f planning; %d frames sent, %.4g ns each over the window, per %v sub-window median %.4g q25 %.4g q75 %.4g (n=%d)\n",
		maxInflight.Load(), nproc, sumF(busy)/wall, median(lateness), p90(lateness), got, want, serveCPU/wall, planCPU/wall, sent,
		serveCPU*1e9/math.Max(float64(sent), 1), sz.cpuEvery, median(perFrame), quantile(perFrame, 0.25), quantile(perFrame, 0.75), len(perFrame))

	if err := s.srv.Close(); err != nil {
		return fmt.Errorf("closing server: %w", err)
	}

	// Medians: serve's plan timings are sampled while the fan-out runs
	// on the other thread, and across runs their median spread less
	// than their lower quartile (6.7% vs 10.1% for plan_s).
	reportPlan(e, plans.all, plans.blocks, 0.5)
	if e.traced() {
		st := newSpanStats(e.tr.Snapshot())
		e.set("netcast.tune_ms", median(st.seconds("netcast_tune"))*1e3)
		e.set("netcast.item_wait_s", mean(st.seconds("netcast_item_wait"))/sz.timeScale)
		// Tracing can only lengthen what a request spends beyond its
		// scheduled wait, so that excess is compared; medians, because
		// a rare missed transmission adds a whole cycle to one excess.
		e.set("trace.overhead_pct", (median(tracedExcess)/median(untracedExcess)-1)*100)
	}
	return nil
}

// planSampler plans the served catalog while the window is open: one
// plan cycle (a cold plan and one block of drift epochs) every period,
// on an OS thread of its own. One plan of 120 items takes well under a
// millisecond, and machine speed on a shared host wanders over
// seconds: 2 s of back-to-back plans read the speed of those 2 s, and
// their lower quartile spread 15–28% across runs. Cycles spread over
// the whole window sample the machine as the plan workloads do. A
// cycle costs some 10 ms of CPU, a few percent of one core at a 250 ms
// period, and the thread's CPU is taken out of the serving CPU the
// window reports.
type planSampler struct {
	all    []cycleResult
	blocks int // distinct epoch blocks; cycle c replans block c mod blocks
	err    error
	cpuNs  atomic.Int64 // thread CPU of the cycles completed so far
	done   chan struct{}
}

func startPlanSampler(e *env, in inputs, sz serveSize, stop <-chan struct{}) *planSampler {
	ps := &planSampler{blocks: max(len(in.drifts)/sz.cycleEpochs, 1), done: make(chan struct{})}
	go func() {
		defer close(ps.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		base := threadCPUSeconds()
		tick := time.NewTicker(sz.planEvery)
		defer tick.Stop()
		for c := 0; ; c++ {
			var tr *trace.Tracer
			if e.traced() && c%2 == 0 {
				tr = e.tr
			}
			b := c % ps.blocks
			block := inputs{db: in.db, drifts: in.drifts[b*sz.cycleEpochs : min((b+1)*sz.cycleEpochs, len(in.drifts))]}
			// The thread slept since the last cycle while serving
			// evicted its caches; an untimed plan warms them, so the
			// timed one measures the plan, not the cache refill.
			_, err := planCycle(e.ck, nil, inputs{db: in.db}, sz.k)
			if err == nil {
				var r cycleResult
				if r, err = planCycle(e.ck, tr, block, sz.k); err == nil {
					if c >= ps.blocks {
						e.ck.ok(sameQuality(ps.all[b], r), "cycle %d's allocation quality differs from cycle %d's for the same seed", c, b)
					}
					ps.all = append(ps.all, r)
				}
			}
			// Read at cycle boundaries only: reading a thread's CPU
			// clock took 1–7 µs here, too much inside a timed replan.
			ps.cpuNs.Store(int64((threadCPUSeconds() - base) * 1e9))
			if err != nil {
				ps.err = err
				return
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return ps
}

func (ps *planSampler) cpuSeconds() float64 { return float64(ps.cpuNs.Load()) / 1e9 }

// usageSampler reads the serving CPU and the frames sent at the end of
// every sub-window of the measured window. The median of the
// sub-windows' CPU per frame is cpu_per_delivery_ns: a burst of other
// tenants' load moves one or two sub-windows, not the median.
type usageSampler struct {
	cpu  []float64 // process CPU less the plan sampler's, s
	sent []int64
	done chan struct{}
}

func startUsageSampler(s *served, k int, plans *planSampler, period time.Duration, stop <-chan struct{}) *usageSampler {
	us := &usageSampler{done: make(chan struct{})}
	read := func() {
		us.cpu = append(us.cpu, cpuSeconds()-plans.cpuSeconds())
		us.sent = append(us.sent, s.counters(k).sent)
	}
	read()
	go func() {
		defer close(us.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return us
}

// perFrameNs returns each whole sub-window's serving CPU per frame sent.
func (us *usageSampler) perFrameNs() []float64 {
	var out []float64
	for i := 1; i < len(us.cpu); i++ {
		if n := us.sent[i] - us.sent[i-1]; n > 0 {
			out = append(out, (us.cpu[i]-us.cpu[i-1])*1e9/float64(n))
		}
	}
	return out
}

// waitModel is the program's exact access-time distribution for a
// request that tunes in at a uniformly random instant for an item drawn
// from the catalog's frequencies: the item in a slot of duration d on a
// channel of cycle C waits U·C + d, U uniform on [0, 1).
type waitModel struct {
	parts          []waitPart
	mass, mean, hi float64
}

type waitPart struct{ f, d, c float64 }

func newWaitModel(p *broadcast.Program, freqs []float64) waitModel {
	var m waitModel
	for _, ch := range p.Channels {
		for _, sl := range ch.Slots {
			f := freqs[sl.Pos]
			m.parts = append(m.parts, waitPart{f, sl.Duration, ch.CycleLength})
			m.mass += f
			m.mean += f * (ch.CycleLength/2 + sl.Duration)
			m.hi = math.Max(m.hi, ch.CycleLength+sl.Duration)
		}
	}
	m.mean /= m.mass
	return m
}

func (m waitModel) cdf(w float64) float64 {
	var F float64
	for _, pt := range m.parts {
		F += pt.f * math.Min(math.Max((w-pt.d)/pt.c, 0), 1)
	}
	return F / m.mass
}

// quantile returns the q-quantile of W + O: W drawn from the model, O
// drawn independently and uniformly from offsets.
func (m waitModel) quantile(q float64, offsets []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, o := range offsets {
		lo, hi = math.Min(lo, o), math.Max(hi, o+m.hi)
	}
	cdf := func(x float64) float64 {
		var F float64
		for _, o := range offsets {
			F += m.cdf(x - o)
		}
		return F / float64(len(offsets))
	}
	for i := 0; i < 200 && hi-lo > 1e-12*math.Abs(hi); i++ {
		if mid := (lo + hi) / 2; cdf(mid) < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

func sumF(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
