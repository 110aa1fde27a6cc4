package airsim_test

import (
	"math"
	"testing"

	"diversecast/internal/airsim"
	"diversecast/internal/broadcast"
	"diversecast/internal/core"
	"diversecast/internal/obs"
	"diversecast/internal/obs/costmon"
	"diversecast/internal/obs/trace"
	"diversecast/internal/workload"
)

// TestCostMonitorGoldenPaperExample is the realized-vs-analytic
// agreement gate on the paper's worked example (Table 3 allocation:
// DRP split refined by CDS, K=5): a long request trace replayed
// through the closed-form simulator must land every channel's
// realized mean wait on the monitor's analytic Eq. (1) prediction,
// and the prediction itself must equal core.ChannelWaitingTime.
// Everything runs in virtual time under a ManualClock.
func TestCostMonitorGoldenPaperExample(t *testing.T) {
	const bandwidth = 1.0
	db := core.PaperExampleDatabase()
	a, err := core.NewDRPExampleConsistent().Allocate(db, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, err = core.NewCDS().Refine(a)
	if err != nil {
		t.Fatal(err)
	}
	p, err := broadcast.Build(a, bandwidth, broadcast.ByPosition)
	if err != nil {
		t.Fatal(err)
	}

	reqs, err := workload.GenerateTrace(db, workload.TraceConfig{
		Requests: 60000, Rate: 50, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}

	clk := &trace.ManualClock{}
	mon, err := costmon.New(costmon.Config{
		Items:    db.Len(),
		Wait:     costmon.WaitRequest,
		HalfLife: 1e9, // effectively decay-free: the golden check wants raw empirical frequencies
		Registry: obs.NewRegistry(),
		Tracer:   trace.New(trace.Config{Capacity: 1 << 10, Clock: clk}),
		Clock:    clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.SetProgram(p, db.Frequencies()); err != nil {
		t.Fatal(err)
	}

	res, err := airsim.MeasureWith(p, reqs, airsim.Options{CostMonitor: mon})
	if err != nil {
		t.Fatal(err)
	}

	// Advance the virtual clock past the run and sample.
	clk.Set(int64(reqs[len(reqs)-1].Time*1e9) + 1e9)
	mon.Sample()
	rep := mon.Report()

	for c := range p.Channels {
		cr := rep.Channels[c]
		// Prediction ≡ the analytic model.
		want := core.ChannelWaitingTime(a, c, bandwidth)
		if math.Abs(cr.PredictedS-want) > 1e-9 {
			t.Fatalf("channel %d: monitor predicted %v, ChannelWaitingTime %v", c, cr.PredictedS, want)
		}
		if cr.Waits == 0 {
			t.Fatalf("channel %d recorded no waits", c)
		}
		// The monitor's realized mean is exact (histogram Sum/Count),
		// so it must match the simulator's own per-channel mean.
		if sim := res.PerChannel[c].Mean; math.Abs(cr.RealizedMeanS-sim) > 1e-9 {
			t.Fatalf("channel %d: monitor realized %v, simulator %v", c, cr.RealizedMeanS, sim)
		}
		// Golden agreement: realized ≈ predicted. The trace is finite,
		// so allow sampling error.
		if rel := math.Abs(cr.RegretS) / cr.PredictedS; rel > 0.05 {
			t.Fatalf("channel %d: realized %v vs predicted %v (%.1f%% off, want ≤5%%)",
				c, cr.RealizedMeanS, cr.PredictedS, rel*100)
		}
	}

	// The trace was drawn from the solved-for distribution, so the
	// drift sensor must stay quiet.
	score, ok := mon.DriftScore()
	if !ok {
		t.Fatal("drift score not available after 60k observations")
	}
	if score > 0.05 {
		t.Fatalf("drift score %v on an undrifted workload, want < 0.05", score)
	}
	if rep.DriftExceeded {
		t.Fatal("drift alarm tripped on an undrifted workload")
	}
}
