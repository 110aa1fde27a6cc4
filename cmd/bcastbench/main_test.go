package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestParseCPUModel(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) Processor\nmodel name\t: second\n", "Intel(R) Xeon(R) Processor"},
		{"processor\t: 0\nBogoMIPS\t: 50.00\nCPU implementer\t: 0x41\n", "unknown"},
		{"model name\t:\n", "unknown"},
		{"", "unknown"},
	} {
		if got := parseCPUModel(strings.NewReader(tc.in)); got != tc.want {
			t.Errorf("parseCPUModel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestDefaultOutIsStdout pins that a run without -out writes the
// report to out and leaves no file behind, so a plain run can never
// overwrite a committed BENCH artifact.
func TestDefaultOutIsStdout(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	var out bytes.Buffer
	if err := run([]string{"-quick", "-family", "trace"}, &out); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not the JSON report: %v", err)
	}
	if len(rep.Results) == 0 || !strings.HasPrefix(rep.Results[0].Name, "TraceOverhead/") {
		t.Fatalf("report results %+v, want the TraceOverhead cells", rep.Results)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("run wrote %d files to the working directory, want none", len(entries))
	}
}
