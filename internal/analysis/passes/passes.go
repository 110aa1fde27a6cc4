// Package passes registers the diverselint analyzer suite: every
// invariant the repository machine-checks, in one list shared by the
// cmd/diverselint driver and the integration tests.
package passes

import (
	"diversecast/internal/analysis"
	"diversecast/internal/analysis/passes/detrand"
	"diversecast/internal/analysis/passes/errdrop"
	"diversecast/internal/analysis/passes/floatdet"
	"diversecast/internal/analysis/passes/floateq"
	"diversecast/internal/analysis/passes/goroleak"
	"diversecast/internal/analysis/passes/hotalloc"
	"diversecast/internal/analysis/passes/lockbalance"
	"diversecast/internal/analysis/passes/lockorder"
	"diversecast/internal/analysis/passes/loopalloc"
	"diversecast/internal/analysis/passes/obsnames"
)

// All returns the full diverselint suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		detrand.Analyzer,
		errdrop.Analyzer,
		floatdet.Analyzer,
		floateq.Analyzer,
		goroleak.Analyzer,
		hotalloc.Analyzer,
		lockbalance.Analyzer,
		lockorder.Analyzer,
		loopalloc.Analyzer,
		obsnames.Analyzer,
	}
}
