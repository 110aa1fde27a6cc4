package airsim

import (
	"math"
	"testing"

	"diversecast/internal/broadcast"
	"diversecast/internal/core"
	"diversecast/internal/workload"
)

func fixture(t *testing.T, n, k int, seed int64) (*core.Allocation, *broadcast.Program) {
	t.Helper()
	db := workload.Config{N: n, Theta: 0.8, Phi: 1.5, Seed: seed}.MustGenerate()
	a, err := core.NewDRPCDS().Allocate(db, k)
	if err != nil {
		t.Fatal(err)
	}
	p, err := broadcast.Build(a, workload.PaperBandwidth, broadcast.ByPosition)
	if err != nil {
		t.Fatal(err)
	}
	return a, p
}

func makeTrace(t *testing.T, a *core.Allocation, n int, seed int64) []workload.Request {
	t.Helper()
	trace, err := workload.GenerateTrace(a.Database(), workload.TraceConfig{
		Requests: n, Rate: 50, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

func TestMeasureValidation(t *testing.T) {
	a, p := fixture(t, 10, 3, 1)
	trace := makeTrace(t, a, 10, 2)
	if _, err := Measure(nil, trace); err != ErrNilProgram {
		t.Errorf("nil program: %v", err)
	}
	if _, err := Measure(p, nil); err != ErrEmptyTrace {
		t.Errorf("empty trace: %v", err)
	}
}

func TestMeasureBasicInvariants(t *testing.T) {
	a, p := fixture(t, 20, 4, 3)
	trace := makeTrace(t, a, 2000, 4)
	res, err := Measure(p, trace)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != len(trace) {
		t.Fatalf("served %d of %d", res.Requests, len(trace))
	}
	if res.Wait.Min <= 0 {
		t.Errorf("minimum wait %v must be positive (download takes time)", res.Wait.Min)
	}
	// Wait = probe + download, means must add up.
	if math.Abs(res.Wait.Mean-(res.Probe.Mean+res.Download.Mean)) > 1e-9 {
		t.Errorf("wait mean %v != probe %v + download %v", res.Wait.Mean, res.Probe.Mean, res.Download.Mean)
	}
	// Per-channel request counts sum to the total.
	total := 0
	for _, s := range res.PerChannel {
		total += s.N
	}
	if total != res.Requests {
		t.Errorf("per-channel counts sum to %d, want %d", total, res.Requests)
	}
}

// The central cross-check: Measure must agree with a slot-by-slot walk
// of the cyclic program that shares none of its lookup arithmetic. The
// walk finds each request's slot by scanning every channel (not
// Locate) and steps through the slot's starts c·CycleLength + Start
// from cycle zero until one reaches the arrival (not next's floor
// arithmetic).
func TestMeasureMatchesSlotWalk(t *testing.T) {
	for _, tc := range []struct {
		n, k     int
		requests int
	}{
		{10, 2, 300},
		{25, 5, 500},
		{40, 7, 400},
		{120, 6, 1000},
	} {
		a, p := fixture(t, tc.n, tc.k, int64(tc.n))
		trace := makeTrace(t, a, tc.requests, int64(tc.k))
		var waitSum, probeSum, waitMax float64
		for _, req := range trace {
			var slot broadcast.Slot
			var cycle float64
			found := false
			for _, ch := range p.Channels {
				for _, sl := range ch.Slots {
					if sl.Pos == req.Pos {
						slot, cycle, found = sl, ch.CycleLength, true
					}
				}
			}
			if !found {
				t.Fatalf("N=%d K=%d: item %d is on no channel", tc.n, tc.k, req.Pos)
			}
			start := slot.Start
			for c := 1; start < req.Time; c++ {
				start = float64(c)*cycle + slot.Start
			}
			probe, wait := start-req.Time, start-req.Time+slot.Duration
			got, err := p.WaitFor(req.Pos, req.Time)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-wait) > 1e-9 {
				t.Fatalf("N=%d K=%d: item %d at %v: WaitFor %v, slot walk %v",
					tc.n, tc.k, req.Pos, req.Time, got, wait)
			}
			waitSum += wait
			probeSum += probe
			waitMax = math.Max(waitMax, wait)
		}
		res, err := Measure(p, trace)
		if err != nil {
			t.Fatal(err)
		}
		n := float64(len(trace))
		for _, m := range []struct {
			name      string
			got, want float64
		}{
			{"wait mean", res.Wait.Mean, waitSum / n},
			{"probe mean", res.Probe.Mean, probeSum / n},
			{"wait max", res.Wait.Max, waitMax},
		} {
			if math.Abs(m.got-m.want) > 1e-9 {
				t.Fatalf("N=%d K=%d: Measure %s %v, slot walk %v", tc.n, tc.k, m.name, m.got, m.want)
			}
		}
	}
}

// The reproduction's keystone: the empirical mean waiting time
// converges to the analytical W_b of Eq. (2), validating the model the
// whole optimization is built on.
func TestEmpiricalWaitConvergesToAnalyticalModel(t *testing.T) {
	a, p := fixture(t, 30, 5, 7)
	trace := makeTrace(t, a, 60000, 8)
	res, err := Measure(p, trace)
	if err != nil {
		t.Fatal(err)
	}
	want := core.WaitingTime(a, workload.PaperBandwidth)
	rel := math.Abs(res.Wait.Mean-want) / want
	if rel > 0.02 {
		t.Fatalf("empirical mean %v vs analytical %v (rel err %.3f)", res.Wait.Mean, want, rel)
	}
	// The empirical download component is exactly the download mass
	// over requests drawn from f — check it converges too.
	wantDownload := a.Database().DownloadMass() / workload.PaperBandwidth
	if math.Abs(res.Download.Mean-wantDownload)/wantDownload > 0.03 {
		t.Fatalf("empirical download %v vs analytical %v", res.Download.Mean, wantDownload)
	}
}

// Per-channel empirical means must match Eq. (1)'s channel averages.
func TestPerChannelWaitMatchesEq1(t *testing.T) {
	a, p := fixture(t, 30, 4, 9)
	trace := makeTrace(t, a, 80000, 10)
	res, err := Measure(p, trace)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < a.K(); c++ {
		if res.PerChannel[c].N < 500 {
			continue // too few samples on cold channels to compare tightly
		}
		want := core.ChannelWaitingTime(a, c, workload.PaperBandwidth)
		got := res.PerChannel[c].Mean
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("channel %d: empirical %v, analytical %v", c, got, want)
		}
	}
}

// A better allocation (lower analytic W_b) must also measure better on
// the same trace — the simulation preserves the optimization's order.
func TestSimulationPreservesAllocationOrdering(t *testing.T) {
	db := workload.Config{N: 40, Theta: 0.8, Phi: 2, Seed: 11}.MustGenerate()
	trace, err := workload.GenerateTrace(db, workload.TraceConfig{Requests: 40000, Rate: 50, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	meanFor := func(a *core.Allocation) float64 {
		p, err := broadcast.Build(a, workload.PaperBandwidth, broadcast.ByPosition)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Measure(p, trace)
		if err != nil {
			t.Fatal(err)
		}
		return res.Wait.Mean
	}
	good, err := core.NewDRPCDS().Allocate(db, 6)
	if err != nil {
		t.Fatal(err)
	}
	// A deliberately poor allocation: everything on one channel.
	bad, err := core.NewAllocation(db, 6, make([]int, db.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if meanFor(good) >= meanFor(bad) {
		t.Fatalf("DRP-CDS (%v) did not beat single-channel (%v) empirically",
			meanFor(good), meanFor(bad))
	}
}

func TestSingleItemProgram(t *testing.T) {
	db := core.MustNewDatabase([]core.Item{{ID: 1, Freq: 1, Size: 5}})
	a, err := core.NewAllocation(db, 1, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	p, err := broadcast.Build(a, 10, broadcast.ByPosition)
	if err != nil {
		t.Fatal(err)
	}
	trace := []workload.Request{{Time: 0.1, Pos: 0}, {Time: 0.6, Pos: 0}}
	res, err := Measure(p, trace)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle = 0.5s. Request at 0.1 catches the start at 0.5 and
	// finishes at 1.0 (wait 0.9); at 0.6 the next start is 1.0,
	// finishing 1.5 (wait 0.9).
	if math.Abs(res.Wait.Mean-0.9) > 1e-9 {
		t.Fatalf("mean wait %v, want 0.9", res.Wait.Mean)
	}
}
