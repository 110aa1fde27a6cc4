// Package hotalloc enforces the repo's zero-allocation hot-path
// contracts: a function marked //diverselint:hotpath — and everything
// it reaches synchronously (Call/Defer edges, plus closures defined
// in hot code) — must not allocate on the disabled-trace path. Each
// violation is reported at the allocation site with its reachability
// chain back to the hot root, so the finding reads as the reviewer
// question it answers: "who dragged an allocation into the sweep?".
//
// Interface-boxing sites — a concrete, non-pointer-shaped value
// passed where an interface (an any/error parameter or variadic) is
// expected — are reported too, worded as boxing: the heap box is a
// hidden allocation the caller never sees in the source. Constants,
// pointer-shaped values and interface pass-throughs do not box.
// //diverselint:coldpath prunes reachability (reason mandatory,
// audited); sites that provably execute only when tracing is enabled
// are exempt everywhere.
package hotalloc

import (
	"diversecast/internal/analysis"
	"diversecast/internal/analysis/escape"
	"diversecast/internal/analysis/summary"
)

var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "allocations and interface boxing reachable from //diverselint:hotpath roots",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	prog, _ := pass.Inter.(*summary.Program)
	if prog == nil || prog.Alloc == nil {
		return nil
	}
	pkgPath := pass.Pkg.Path()

	// Files of this package, for attributing malformed directives.
	inPkg := make(map[string]bool, len(pass.Files))
	for _, f := range pass.Files {
		inPkg[pass.Fset.Position(f.Pos()).Filename] = true
	}
	for _, m := range prog.Alloc.Malformed {
		if inPkg[pass.Fset.Position(m.Pos).Filename] {
			pass.Reportf(m.Pos, "%s", m.Msg)
		}
	}

	for _, f := range prog.Alloc.HotFindings() {
		if f.Node.Pkg.Path != pkgPath {
			continue
		}
		verb := "allocates"
		if f.Site.Kind == escape.Box {
			verb = "boxes"
		}
		root := escape.ShortName(f.Root.Node.Name)
		if via := f.Root.Via(f.Node); via != "" {
			pass.Reportf(f.Site.Pos, "%s on hot path from %s (via %s): %s",
				verb, root, via, f.Site.What)
		} else {
			pass.Reportf(f.Site.Pos, "%s on hot path from %s: %s",
				verb, root, f.Site.What)
		}
	}
	return nil
}
