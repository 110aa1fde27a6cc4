// Package airsim simulates the broadcast "air": clients tune in at
// request times drawn from the access distribution, probe their
// channel until the wanted item's next transmission begins, then
// download it. It measures the empirical mean waiting time that the
// paper's Eq. (2) predicts analytically by a closed-form replay of the
// cyclic schedule, which the tests check against a slot-by-slot walk
// of the program and against the analytical model.
package airsim

import (
	"errors"
	"fmt"

	"diversecast/internal/broadcast"
	"diversecast/internal/obs/costmon"
	"diversecast/internal/obs/trace"
	"diversecast/internal/stats"
	"diversecast/internal/workload"
)

// Trace span and event names emitted by Measure. Snake_case
// per the obsnames convention; constants so the analyzer can see them.
const (
	spanBroadcastCycle = "broadcast_cycle"
	eventClientTuneIn  = "client_tune_in"
	eventClientServed  = "client_served"
)

// Options carries cross-cutting run configuration for MeasureWith.
type Options struct {
	// Tracer receives one broadcast_cycle span per channel cycle
	// (tagged with the channel's F·Z group cost) and one tune-in /
	// served event pair per request, all stamped with the simulation's
	// virtual time (seconds scaled to nanoseconds), so a replayed
	// trace is deterministic and viewer timelines read in sim time.
	// Nil uses trace.Default(), which starts disabled.
	Tracer *trace.Tracer
	// CostMonitor, when set, receives one tune-in (with the requested
	// item's position) and one realized wait per request, both in
	// virtual seconds. Build it with Wait: costmon.WaitRequest and a
	// ManualClock driven in virtual time; the golden tests pin its
	// realized means to the analytic Eq. (1) expectations this way.
	CostMonitor *costmon.Monitor
}

// virtualNS converts virtual simulation seconds to the integer
// nanosecond timestamps the tracer records.
func virtualNS(seconds float64) int64 { return int64(seconds * 1e9) }

// Result summarizes one simulation run.
type Result struct {
	// Requests is the number of requests served.
	Requests int
	// Wait summarizes the full waiting time (probe + download) over
	// all requests.
	Wait stats.Summary
	// Probe and Download split the waiting time into its two
	// components.
	Probe    stats.Summary
	Download stats.Summary
	// PerChannel summarizes waiting time by the channel serving the
	// request.
	PerChannel []stats.Summary
}

// Errors returned by Measure.
var (
	ErrNilProgram = errors.New("airsim: nil program")
	ErrEmptyTrace = errors.New("airsim: empty request trace")
)

// Measure replays the cyclic schedule in closed form: for every
// request it computes the next transmission start of the wanted item
// and accumulates probe and download times. It is exact (no
// discretization) and linear in the trace length.
func Measure(p *broadcast.Program, reqs []workload.Request) (*Result, error) {
	return MeasureWith(p, reqs, Options{})
}

// MeasureWith is Measure with explicit options (tracing).
func MeasureWith(p *broadcast.Program, reqs []workload.Request, opts Options) (*Result, error) {
	if p == nil {
		return nil, ErrNilProgram
	}
	if len(reqs) == 0 {
		return nil, ErrEmptyTrace
	}
	tr := opts.Tracer
	if tr == nil {
		tr = trace.Default()
	}
	traceOn := tr.Enabled()

	var wait, probe, download stats.Accumulator
	perChannel := make([]stats.Accumulator, p.K)
	horizon := 0.0
	for _, req := range reqs {
		start, err := p.NextStart(req.Pos, req.Time)
		if err != nil {
			return nil, fmt.Errorf("airsim: request at %v: %w", req.Time, err)
		}
		c, s, _ := p.Locate(req.Pos)
		d := p.Channels[c].Slots[s].Duration
		pr := start - req.Time
		probe.Add(pr)
		download.Add(d)
		wait.Add(pr + d)
		perChannel[c].Add(pr + d)
		if opts.CostMonitor != nil {
			opts.CostMonitor.ObserveTuneIn(c, req.Pos)
			opts.CostMonitor.RecordWait(c, pr+d)
		}
		if end := start + d; end > horizon {
			horizon = end
		}
		if traceOn {
			tr.EventAt(eventClientTuneIn, virtualNS(req.Time),
				trace.Int("channel", int64(c)), trace.Int("item", int64(req.Pos)))
			tr.EventAt(eventClientServed, virtualNS(start+d),
				trace.Int("channel", int64(c)), trace.Int("item", int64(req.Pos)),
				trace.Float("probe", pr), trace.Float("wait", pr+d))
		}
	}
	if traceOn {
		emitCycleSpans(tr, p, horizon)
	}
	res := &Result{
		Requests: len(reqs),
		Wait:     wait.Summarize(),
		Probe:    probe.Summarize(),
		Download: download.Summarize(),
	}
	for _, acc := range perChannel {
		res.PerChannel = append(res.PerChannel, acc.Summarize())
	}
	return res, nil
}

// emitCycleSpans replays the cyclic schedule structure over [0,
// horizon] as one span per channel cycle, each tagged with the
// channel's F·Z group cost and cycle length. The closed form never
// iterates cycles itself, so the spans are synthesized from the
// schedule.
func emitCycleSpans(tr *trace.Tracer, p *broadcast.Program, horizon float64) {
	for c, ch := range p.Channels {
		if ch.CycleLength <= 0 {
			continue
		}
		for cycle := 0; ; cycle++ {
			start := float64(cycle) * ch.CycleLength
			if start >= horizon {
				break
			}
			sp := tr.StartAt(spanBroadcastCycle, virtualNS(start),
				trace.Int("channel", int64(c)), trace.Int("cycle", int64(cycle)),
				trace.Float("group_cost", ch.GroupCost),
				trace.Float("cycle_length", ch.CycleLength))
			sp.EndAt(virtualNS(start + ch.CycleLength))
		}
	}
}
