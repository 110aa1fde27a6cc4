package airsim

import (
	"testing"

	"diversecast/internal/obs/trace"
)

// TestEventDrivenTraceTimeline checks Measure's trace is a timeline
// stamped with virtual time: one tune-in/served event pair per
// request, tune-ins at the arrival times, and cycle spans tagged with
// the channel's F·Z group cost, each spanning one cycle and covering
// every channel that served a request.
func TestEventDrivenTraceTimeline(t *testing.T) {
	a, p := fixture(t, 12, 3, 4)
	reqs := makeTrace(t, a, 40, 5)

	tr := trace.New(trace.Config{Capacity: 1 << 14, RunID: "airsim-timeline"})
	res, err := MeasureWith(p, reqs, Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	if snap.Dropped != 0 {
		t.Fatalf("ring dropped %d records; grow the test capacity", snap.Dropped)
	}

	served := snap.Named("client_served")
	if len(served) != res.Requests {
		t.Fatalf("%d client_served events, want %d", len(served), res.Requests)
	}
	tuneIns := snap.Named("client_tune_in")
	if len(tuneIns) != res.Requests {
		t.Fatalf("%d client_tune_in events, want %d", len(tuneIns), res.Requests)
	}
	// Tune-in timestamps are the request arrival times in virtual ns.
	wantFirst := virtualNS(reqs[0].Time)
	foundFirst := false
	for _, ev := range tuneIns {
		if ev.Start == wantFirst {
			foundFirst = true
		}
	}
	if !foundFirst {
		t.Fatalf("no tune-in at the first arrival's virtual time %d", wantFirst)
	}

	cycles := snap.Named("broadcast_cycle")
	if len(cycles) == 0 {
		t.Fatal("no broadcast_cycle spans")
	}
	seenChannel := make(map[int64]bool)
	for _, sp := range cycles {
		ch, _ := sp.Attr("channel")
		cost, _ := sp.Attr("group_cost")
		clen, _ := sp.Attr("cycle_length")
		seenChannel[ch.Int] = true
		if want := p.Channels[ch.Int].GroupCost; cost.Float != want {
			t.Fatalf("cycle span on channel %d has group_cost %v, want %v", ch.Int, cost.Float, want)
		}
		// End/start are rounded to ns independently, so allow 1ns slop.
		if d := sp.Dur - virtualNS(clen.Float); d < -1 || d > 1 {
			t.Fatalf("cycle span duration %d ns, want cycle length %v s", sp.Dur, clen.Float)
		}
	}
	// Every channel that served a request broadcast at least one cycle.
	for _, ev := range served {
		ch, _ := ev.Attr("channel")
		if !seenChannel[ch.Int] {
			t.Fatalf("channel %d served requests but emitted no cycle span", ch.Int)
		}
	}
}

// TestMeasureTraceMatchesClosedForm checks the closed-form replay
// emits per-request event pairs whose wait attr matches the analytic
// per-request wait, plus synthesized cycle spans covering the horizon.
func TestMeasureTraceMatchesClosedForm(t *testing.T) {
	a, p := fixture(t, 12, 3, 4)
	reqs := makeTrace(t, a, 40, 5)

	tr := trace.New(trace.Config{Capacity: 1 << 14, RunID: "airsim-closed"})
	res, err := MeasureWith(p, reqs, Options{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot()
	served := snap.Named("client_served")
	if len(served) != res.Requests {
		t.Fatalf("%d client_served events, want %d", len(served), res.Requests)
	}
	var sum float64
	for _, ev := range served {
		w, ok := ev.Attr("wait")
		if !ok {
			t.Fatalf("served event lacks wait attr: %+v", ev)
		}
		sum += w.Float
	}
	if mean := sum / float64(len(served)); !closeTo(mean, res.Wait.Mean, 1e-9) {
		t.Fatalf("event wait mean %v, result mean %v", mean, res.Wait.Mean)
	}
	if len(snap.Named("broadcast_cycle")) == 0 {
		t.Fatal("closed-form run emitted no cycle spans")
	}
}

// TestSimulatorsQuietWhenDisabled: with no tracer and the default
// disabled, an instrumented run stays silent.
func TestSimulatorsQuietWhenDisabled(t *testing.T) {
	a, p := fixture(t, 10, 3, 1)
	reqs := makeTrace(t, a, 10, 2)
	if _, err := Measure(p, reqs); err != nil {
		t.Fatal(err)
	}
	if n := len(trace.Default().Snapshot().Records); n != 0 {
		t.Fatalf("default tracer captured %d records while disabled", n)
	}
}

func closeTo(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}
