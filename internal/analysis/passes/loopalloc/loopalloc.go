// Package loopalloc flags allocation in loops inside the repo's hot
// packages (core, netcast, pool, obs): allocations, defer
// registrations, and appends that are not provably preallocated,
// each reported with its loop nesting depth from the CFG — goto- and
// labeled-branch loops count exactly like for/range. A make hoisted
// above the loop is setup; the same make inside it is a per-iteration
// GC tax that a bench will eventually bill, which is why the net is
// wider than hotalloc's: every function in a hot package is checked,
// hot-reachable or not.
//
// Exemptions: interface-boxing sites (hotalloc reports them on hot paths), sites gated
// on tracing being enabled, functions in _test.go files (tests and
// benches allocate freely), and functions marked
// //diverselint:coldpath with an audited reason — the setup/teardown
// escape hatch that keeps per-site suppressions reserved for code
// that is genuinely hot.
package loopalloc

import (
	"strings"

	"diversecast/internal/analysis"
	"diversecast/internal/analysis/escape"
	"diversecast/internal/analysis/summary"
)

var Analyzer = &analysis.Analyzer{
	Name: "loopalloc",
	Doc:  "allocations, defers, and growing appends in loops of hot packages",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	prog, _ := pass.Inter.(*summary.Program)
	if prog == nil || prog.Alloc == nil {
		return nil
	}
	pkgPath := pass.Pkg.Path()
	if !escape.HotPackage(pkgPath) {
		return nil
	}
	for _, n := range prog.Alloc.Graph.Nodes {
		if n.Pkg.Path != pkgPath {
			continue
		}
		fi := prog.Alloc.Of(n)
		if fi == nil || fi.Cold {
			continue
		}
		if strings.HasSuffix(pass.Fset.Position(n.Pos).Filename, "_test.go") {
			continue
		}
		for _, s := range fi.Sites {
			if s.Depth == 0 || s.Gated || s.Kind == escape.Box {
				continue
			}
			pass.Reportf(s.Pos, "allocation in loop (depth %d): %s", s.Depth, s.What)
		}
	}
	return nil
}
