package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"diversecast/internal/obs"
	"diversecast/internal/obs/trace"
)

func TestRunClosedForm(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "40", "-k", "4", "-requests", "20000", "-trace-seed", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"analytical W_b", "measured wait", "relative error", "channel 0"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	// The measured mean should be close to the model: extract the
	// relative error line and bound it.
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "relative error:") {
			f := strings.Fields(line)
			v, err := strconv.ParseFloat(strings.TrimSuffix(f[len(f)-1], "%"), 64)
			if err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			if v > 5 || v < -5 {
				t.Errorf("relative error %v%% too large", v)
			}
		}
	}
}

// TestRunHistogram pins the -hist block of a paper-default run — the
// p50/p95 line and every bin row — to a golden file, so any change in
// binning, quantiles or layout fails.
func TestRunHistogram(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-paper", "-k", "5", "-requests", "3000", "-hist"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "hist_paper_k5.golden"))
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	i := strings.Index(s, "waiting-time histogram")
	if i < 0 {
		t.Fatalf("histogram missing:\n%s", s)
	}
	lines := strings.SplitAfter(s[i:], "\n")
	if n := strings.Count(string(want), "\n"); len(lines) < n || strings.Join(lines[:n], "") != string(want) {
		t.Errorf("histogram block differs from testdata/hist_paper_k5.golden:\ngot:\n%s\nwant:\n%s", s[i:], want)
	}
}

// TestRenderHistogram: bars scale to the fullest bin, and underflow
// and overflow get their own rows.
func TestRenderHistogram(t *testing.T) {
	h := obs.NewRegistry().Histogram("h", "", 0, 4, 2)
	for _, x := range []float64{1, 1.5, 3, -5, 99} {
		h.Observe(x)
	}
	want := "     0.000..2.000           2 ##########\n" +
		"     2.000..4.000           1 #####\n" +
		"           <underflow>      1\n" +
		"            <overflow>      1\n"
	if got := renderHistogram(h.Snapshot(), 10); got != want {
		t.Fatalf("render:\n%q\nwant:\n%q", got, want)
	}
}

// TestRunStatsDump: -stats appends the metrics registry, including
// the allocator timings the run just produced. Clients are modelled
// without a cache, so no cache_ series appears.
func TestRunStatsDump(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "30", "-k", "3", "-requests", "2000", "-stats"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"---- metrics ----",
		"# TYPE core_drp_seconds histogram",
		"core_cds_refinements_total",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("-stats output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "cache_") {
		t.Errorf("-stats output has a cache_ series:\n%s", s)
	}
}

func TestRunErrors(t *testing.T) {
	tests := [][]string{
		{"-n", "10", "-k", "11"}, // K > N
		{"-alg", "nope"},         // unknown algorithm
		{"-rate", "0"},           // bad trace rate
		{"-requests", "-5"},      // bad request count
		{"-bandwidth", "-1"},     // bad bandwidth
		{"-nonsense"},            // flag error
	}
	for _, args := range tests {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

// TestRunTraceExport: -trace writes a Chrome trace_event JSON file in
// which the allocator's DRP splits, the CDS refinement moves, and the
// simulator's per-cycle broadcast spans all carry the same run ID —
// one file correlates the whole run on a single timeline.
func TestRunTraceExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace.json")
	var out bytes.Buffer
	err := run([]string{"-paper", "-k", "5", "-requests", "300", "-trace", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer trace.Default().Disable()
	if !strings.Contains(out.String(), "trace:") {
		t.Errorf("output missing trace summary line:\n%s", out.String())
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	runID, _ := doc.Metadata["run_id"].(string)
	if runID == "" {
		t.Fatal("metadata.run_id missing")
	}

	counts := make(map[string]int)
	for _, ev := range doc.TraceEvents {
		counts[ev.Name]++
		if ev.Phase == "M" {
			continue // process_name metadata carries no run_id
		}
		if got, _ := ev.Args["run_id"].(string); got != runID {
			t.Fatalf("event %s has run_id %q, want %q", ev.Name, got, runID)
		}
	}
	for _, want := range []string{"drp_allocate", "drp_split", "cds_refine", "cds_move",
		"broadcast_cycle", "client_tune_in", "client_served"} {
		if counts[want] == 0 {
			t.Errorf("trace has no %s events (have %v)", want, counts)
		}
	}
	if dropped, _ := doc.Metadata["dropped_records"].(float64); dropped != 0 {
		t.Errorf("ring dropped %v records; it should be sized for the workload", dropped)
	}
}
