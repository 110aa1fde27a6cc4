package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleFigure(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "fig2", "-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"fig2", "VFK", "DRP-CDS", "GOPT"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunCSV(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "fig6", "-quick", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("csv too short:\n%s", out.String())
	}
	if !strings.HasPrefix(lines[0], "K,") {
		t.Errorf("csv header = %q", lines[0])
	}
}

// TestRunAblationsGolden pins the quick ablation CSV byte for byte:
// abl1's exact FLAT/GREEDY/DRP/CONTIG-DP/DRP-CDS costs and abl2's
// replanning waits and churn.
func TestRunAblationsGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-ablations", "-quick", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "ablations_quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("ablations differ from testdata/ablations_quick.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRunRequiresSelection(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("no -fig/-all should fail")
	}
}

func TestRunUnknownFigure(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "fig42", "-quick"}, &out); err == nil {
		t.Fatal("unknown figure should fail")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-frobnicate"}, &out); err == nil {
		t.Fatal("bad flag should fail")
	}
}
