package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"diversecast/internal/broadcast"
	"diversecast/internal/wire"
)

// toyRun runs a workload at toy size and fails the test when it could
// not run at all.
func toyRun(t *testing.T, name string, seed int64, window time.Duration, traced bool, hook faults) result {
	t.Helper()
	res, _, err := runWorkload(name, seed, window, traced, true, hook, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func toyWindow(name string) time.Duration {
	if name == "serve" {
		return 1500 * time.Millisecond
	}
	return 100 * time.Millisecond
}

// Every workload runs at toy size, passes its checks and reports every
// metric of its mode, by name, with its unit.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			res := toyRun(t, name, 3, toyWindow(name), traced, faults{})
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, d.name, m, d.unit)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back map[string]json.RawMessage
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatal(err)
			}
			if len(back) != 4 {
				t.Errorf("%s: result line has keys %v, want correct/attempted/failed/metrics", name, keys(back))
			}
		}
	}
}

// The quality metrics of the plan workloads are functions of the seed
// alone: two runs of one seed agree to the bit. Another seed draws
// another trace and other drift epochs over the same fixed catalog.
func TestDeterministicMetricsAreBitStable(t *testing.T) {
	for _, name := range []string{"plan-wide", "plan-narrow"} {
		a := toyRun(t, name, 5, toyWindow(name), false, faults{})
		b := toyRun(t, name, 5, toyWindow(name), false, faults{})
		c := toyRun(t, name, 6, toyWindow(name), false, faults{})
		for _, m := range []string{"alloc_gap", "replan_churn", "access_time_s", "access_time_p90_s"} {
			x, y := a.Metrics[m].Value, b.Metrics[m].Value
			if math.Float64bits(x) != math.Float64bits(y) {
				t.Errorf("%s %s: %v then %v for one seed", name, m, x, y)
			}
			if differs := c.Metrics[m].Value != x; differs != (m != "alloc_gap") {
				t.Errorf("%s %s: seed 5 gives %v, seed 6 %v", name, m, x, c.Metrics[m].Value)
			}
		}
	}
}

// A corrupted payload on one TCP reception must fail its check, lower
// success_ratio and make the run incorrect.
func TestCorruptPayloadFailsTheRun(t *testing.T) {
	res := toyRun(t, "serve", 4, toyWindow("serve"), false, faults{corruptRequest: 2})
	if res.Correct || res.Failed != 1 {
		t.Fatalf("correct=%v failed=%d, want one failed check", res.Correct, res.Failed)
	}
	if s := res.Metrics["success_ratio"].Value; !(s < 1) {
		t.Errorf("success_ratio %v, want below 1", s)
	}
}

// windowDeliveries counts only frames broadcast inside the window, so
// a backlog drained after the window opens cannot push the ratio above
// one, as a plain sent-counter delta does.
func TestWindowDeliveriesAtTheEdges(t *testing.T) {
	const lo, hi = 150, 250
	for _, tc := range []struct {
		name            string
		first, next     int64
		skips           []seqRange
		wantGot, wantOf int64
	}{
		{"caught up at both edges", 100, 260, nil, 100, 100},
		{"backlog drained after the window opened", 100, 250, nil, 100, 100},
		{"window frames still in flight at close", 100, 240, nil, 90, 100},
		{"attached inside the window", 200, 250, nil, 50, 50},
		{"attached after the window", 300, 320, nil, 0, 0},
		{"lapped inside the window", 100, 260, []seqRange{{160, 170}}, 90, 100},
		{"lapped across the window's opening", 100, 260, []seqRange{{140, 155}}, 95, 100},
		{"never caught up to the window", 100, 140, nil, 0, 100},
	} {
		got, of := windowDeliveries(tc.first, tc.next, tc.skips, lo, hi)
		if got != tc.wantGot || of != tc.wantOf {
			t.Errorf("%s: %d of %d, want %d of %d", tc.name, got, of, tc.wantGot, tc.wantOf)
		}
		if got > of {
			t.Errorf("%s: ratio above one", tc.name)
		}
	}

	// The same backlog through the naive accounting: the sink sat at
	// 120 when the window opened and drained to 250 inside it, so it
	// wrote 130 frames while 100 were broadcast.
	if naive := float64(250-120) / float64(hi-lo); naive <= 1 {
		t.Fatalf("naive ratio %v: the case no longer shows the windowing bug", naive)
	}
}

// A sink fed real frames keeps its sequence position across chunk,
// begin/end and resync frames, and flags a write that is not one frame.
func TestSinkFollowsTheFrameStream(t *testing.T) {
	frame := func(mt wire.MsgType, body []byte) []byte {
		f, err := wire.EncodeFrame(mt, body)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	s := &sink{first: 1000}
	for i := 0; i < 10; i++ {
		s.Write(frame(wire.MsgItemChunk, []byte("payload")))
	}
	rs, err := wire.EncodeJSON(wire.MsgResync, wire.Resync{Channel: 0, Skipped: 5})
	if err != nil {
		t.Fatal(err)
	}
	s.Write(rs)
	for i := 0; i < 10; i++ {
		s.Write(frame(wire.MsgItemEnd, []byte(`{}`)))
	}
	// Frames 1000–1009 arrived, 1010–1014 were skipped, 1015–1024 arrived.
	if got, of := s.window(1005, 1020); got != 10 || of != 15 {
		t.Errorf("window [1005,1020): %d of %d, want 10 of 15", got, of)
	}
	whole := frame(wire.MsgItemChunk, []byte("x"))
	s.Write(whole[:3])
	if s.malformed.Load() != 1 {
		t.Errorf("a partial frame write was not flagged")
	}
}

// An unknown workload exits 2 and prints no result line.
func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("stdout %q, want nothing", out.String())
	}
}

// BENCHMARK.json names exactly the workloads and metrics this program
// implements, with the same units.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, tc := range []struct {
		list []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(tc.list) != len(tc.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, program has %d", len(tc.list), len(tc.defs))
			continue
		}
		for i, d := range tc.defs {
			if tc.list[i].Name != d.name || tc.list[i].Unit != d.unit {
				t.Errorf("BENCHMARK.json metric %d is %+v, program has %s [%s]", i, tc.list[i], d.name, d.unit)
			}
		}
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func keys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// The serve workload's exact wait model: two equally likely items on a
// 10 s cycle with slots of 4 s and 6 s wait uniformly on [4, 14) and
// [6, 16).
func TestWaitModel(t *testing.T) {
	p := &broadcast.Program{K: 1, Bandwidth: 1, Channels: []broadcast.Channel{{
		CycleLength: 10,
		Slots: []broadcast.Slot{
			{Pos: 0, ItemID: 1, Size: 4, Start: 0, Duration: 4},
			{Pos: 1, ItemID: 2, Size: 6, Start: 4, Duration: 6},
		},
	}}}
	m := newWaitModel(p, []float64{0.5, 0.5})
	for _, tc := range []struct {
		name      string
		got, want float64
	}{
		{"mean", m.mean, 10},
		{"median", m.quantile(0.5, []float64{0}), 10},
		{"p90", m.quantile(0.9, []float64{0}), 14},
		{"median with offsets 0 and 2", m.quantile(0.5, []float64{0, 2}), 11},
	} {
		if math.Abs(tc.got-tc.want) > 1e-9 {
			t.Errorf("%s: %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}
