package hotalloc_test

import (
	"testing"

	"diversecast/internal/analysis/analysistest"
	"diversecast/internal/analysis/passes/hotalloc"
)

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", hotalloc.Analyzer, "hot")
}

// TestHotAllocBoxing runs the boxing fixtures: interface conversions that
// heap-allocate on a hot path report as "boxes on hot path from …".
func TestHotAllocBoxing(t *testing.T) {
	analysistest.Run(t, "testdata", hotalloc.Analyzer, "box")
}
