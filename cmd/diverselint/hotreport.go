package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"os"

	"diversecast/internal/analysis"
	"diversecast/internal/analysis/escape"
	"diversecast/internal/analysis/summary"
)

// The -hot report: every //diverselint:hotpath root with its
// reachable-function count and a clean / suppressed / violating
// status, so "what are our zero-alloc contracts and do they hold?"
// is one command instead of an archaeology session. The same data
// rides along in the -json report as the hot_roots section; node
// order is the deterministic root (node-ID) order and site order is
// BFS-then-source, so two runs over the same tree emit byte-identical
// output.

// A hotSite is one ungated allocation site reachable from a root.
type hotSite struct {
	Pos  string `json:"pos"`
	Kind string `json:"kind"`
	What string `json:"what"`
	// Func is the function holding the site; Via the BFS chain from
	// the root to it (empty when the site is in the root itself).
	Func string `json:"func"`
	Via  string `json:"via,omitempty"`
	// Suppressed sites carry the //diverselint:ignore reason from the
	// site's line — the audited escape hatch.
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

// A hotRoot is one annotated hot-path contract.
type hotRoot struct {
	Func string `json:"func"`
	Pkg  string `json:"pkg"`
	Pos  string `json:"pos"`
	Note string `json:"note,omitempty"`
	// Reachable counts the functions in the root's hot closure (the
	// root included; gated, cold, and test-file edges pruned).
	Reachable int `json:"reachable"`
	// Status is "clean" (no reachable ungated site), "suppressed"
	// (sites exist, every one carries an audited ignore), or
	// "violating" (at least one unsuppressed site).
	Status string    `json:"status"`
	Sites  []hotSite `json:"sites,omitempty"`
}

// suppIndex maps filename -> line -> the ignore directives covering
// that line, mirroring the driver's own suppression scope (the
// directive's line and the line below it).
type suppIndex map[string]map[int][]*analysis.Suppression

func buildSuppIndex(fset *token.FileSet, pkgs []*analysis.Package) suppIndex {
	idx := make(suppIndex)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			valid, _ := analysis.FileSuppressions(fset, f)
			name := fset.Position(f.Pos()).Filename
			lines := idx[name]
			if lines == nil {
				lines = make(map[int][]*analysis.Suppression)
				idx[name] = lines
			}
			for i := range valid {
				s := &valid[i]
				lines[s.Pos.Line] = append(lines[s.Pos.Line], s)
				lines[s.Pos.Line+1] = append(lines[s.Pos.Line+1], s)
			}
		}
	}
	return idx
}

func buildHotReport(prog *summary.Program, pkgs []*analysis.Package) []hotRoot {
	alloc := prog.Alloc
	idx := buildSuppIndex(prog.Fset, pkgs)
	roots := []hotRoot{}
	for _, r := range alloc.Roots {
		jr := hotRoot{
			Func:      r.Node.Name,
			Pkg:       r.Node.Pkg.Path,
			Pos:       posString(prog.Fset, r.Node.Pos),
			Note:      r.Note,
			Reachable: len(r.Order),
			Status:    "clean",
		}
		suppressed := 0
		for _, f := range alloc.RootFindings(r) {
			pos := prog.Fset.Position(f.Site.Pos)
			js := hotSite{
				Pos:  posString(prog.Fset, f.Site.Pos),
				Kind: f.Site.Kind.String(),
				What: f.Site.What,
				Func: f.Node.Name,
				Via:  r.Via(f.Node),
			}
			for _, dir := range idx[pos.Filename][pos.Line] {
				if dir.Matches("hotalloc") {
					js.Suppressed = true
					js.Reason = dir.Reason
					suppressed++
					break
				}
			}
			jr.Sites = append(jr.Sites, js)
		}
		switch {
		case len(jr.Sites) == 0:
		case suppressed == len(jr.Sites):
			jr.Status = "suppressed"
		default:
			jr.Status = "violating"
		}
		roots = append(roots, jr)
	}
	return roots
}

// emitHot prints the -hot report. Exit status 1 when any contract is
// violating (or a hotpath/coldpath directive does not parse), 0
// otherwise — same convention as linting.
func emitHot(prog *summary.Program, pkgs []*analysis.Package, jsonOut bool) int {
	roots := buildHotReport(prog, pkgs)
	violations := 0
	for _, r := range roots {
		if r.Status == "violating" {
			violations++
		}
	}
	malformed := []string{}
	for _, m := range prog.Alloc.Malformed {
		malformed = append(malformed, fmt.Sprintf("%s: %s", posString(prog.Fset, m.Pos), m.Msg))
	}
	if jsonOut {
		rep := struct {
			HotRoots  []hotRoot `json:"hot_roots"`
			Malformed []string  `json:"malformed,omitempty"`
		}{roots, malformed}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "diverselint:", err)
			return 2
		}
	} else {
		for _, r := range roots {
			note := ""
			if r.Note != "" {
				note = " (" + r.Note + ")"
			}
			fmt.Printf("%s: %s%s: %s, %d reachable function(s), %d site(s)\n",
				r.Pos, r.Func, note, r.Status, r.Reachable, len(r.Sites))
			for _, s := range r.Sites {
				mark := "violating"
				if s.Suppressed {
					mark = "suppressed: " + s.Reason
				}
				via := ""
				if s.Via != "" {
					via = " (via " + s.Via + ")"
				}
				fmt.Printf("  %s: %s in %s%s [%s]\n", s.Pos, s.What, escape.ShortName(s.Func), via, mark)
			}
		}
		for _, m := range malformed {
			fmt.Printf("%s\n", m)
		}
		fmt.Fprintf(os.Stderr, "diverselint: -hot: %d root(s), %d violating, %d malformed directive(s)\n",
			len(roots), violations, len(malformed))
	}
	if violations > 0 || len(malformed) > 0 {
		return 1
	}
	return 0
}

// auditDirectives inventories the //diverselint:hotpath and
// //diverselint:coldpath directives of one parsed file for -audit
// (ignore directives are FileSuppressions' to parse).
// Violations: a coldpath without its mandatory reason, either
// directive placed anywhere but a function's doc comment (where the
// analysis cannot see it — a silently dead annotation), and any
// //diverselint:<verb> other than ignore, hotpath and coldpath — a
// misspelled verb is a directive nothing reads.
func auditDirectives(fset *token.FileSet, f *ast.File) (entries, violations []string) {
	inDoc := make(map[*ast.Comment]bool)
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Doc == nil {
			continue
		}
		for _, c := range fd.Doc.List {
			inDoc[c] = true
		}
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			kind, rest, ok := analysis.ParseDirective(c)
			if !ok || kind == "ignore" {
				continue
			}
			pos := fset.Position(c.Pos())
			if kind != "hotpath" && kind != "coldpath" {
				violations = append(violations,
					fmt.Sprintf("%s: unknown directive //diverselint:%s (want ignore, hotpath or coldpath)", pos, kind))
				continue
			}
			if !inDoc[c] {
				violations = append(violations,
					fmt.Sprintf("%s: //diverselint:%s outside a function doc comment has no effect", pos, kind))
				continue
			}
			if kind == "coldpath" && rest == "" {
				violations = append(violations,
					fmt.Sprintf("%s: //diverselint:coldpath needs a reason (why is this function off the hot path?)", pos))
				continue
			}
			entries = append(entries, fmt.Sprintf("%s: %s: %s", pos, kind, rest))
		}
	}
	return entries, violations
}
