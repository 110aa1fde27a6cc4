package main

import (
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
