// Command diverselint runs the repository's custom analyzer suite
// (internal/analysis/passes): the correctness invariants PR 1 fixed
// by hand, encoded as machine checks.
//
// Linting:
//
//	diverselint [-tests] [-show-suppressed] [-json] [-only floatdet,lockorder] [packages]
//
// with packages defaulting to ./... of the enclosing module. Exit
// status is 1 when unsuppressed findings exist, 2 on operational
// errors. -json replaces the line-oriented output with a single JSON
// report (findings plus suppressed/unsuppressed counts) for CI
// artifacts; the exit codes are unchanged.
//
// Hot-path report mode:
//
//	diverselint -hot [-json] [packages]
//
// lists every //diverselint:hotpath root with its reachable-function
// count and a clean/suppressed/violating allocation status (with
// -json, as a deterministic hot_roots document for CI artifacts), and
// fails (exit 1) when any contract is violated or a hotpath/coldpath
// directive does not parse.
//
// Audit mode:
//
//	diverselint -audit [packages]
//
// walks every //diverselint: directive in the matched packages (test
// files included) without type-checking, prints the inventory of
// ignore, hotpath and coldpath directives, and fails (exit 1) on any
// directive that is malformed, names an unknown analyzer, uses
// another verb, or sits where the analysis cannot see it — so the
// tree's escape hatches stay documented and spellable.
//
// Findings are suppressed by an in-code justification:
//
//	//diverselint:ignore <analyzer> <reason>
//
// on the flagged line or the line above; the reason is mandatory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"

	"diversecast/internal/analysis"
	"diversecast/internal/analysis/callgraph"
	"diversecast/internal/analysis/passes"
	"diversecast/internal/analysis/summary"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("diverselint", flag.ExitOnError)
	var (
		listFlag       = fs.Bool("list", false, "list analyzers and exit")
		testsFlag      = fs.Bool("tests", false, "also lint _test.go files of each package")
		showSuppressed = fs.Bool("show-suppressed", false, "also print suppressed findings (marked, not counted)")
		onlyFlag       = fs.String("only", "", "comma-separated analyzer subset to run")
		jsonFlag       = fs.Bool("json", false, "emit one JSON report on stdout instead of lines")
		auditFlag      = fs.Bool("audit", false, "audit every //diverselint: directive (ignore, hotpath, coldpath) instead of linting")
		hotFlag        = fs.Bool("hot", false, "report //diverselint:hotpath roots and their allocation status instead of linting")
		callgraphFlag  = fs.Bool("callgraph", false, "dump the whole-program call graph and function summaries as JSON instead of linting")
	)
	fs.Parse(args)

	if *listFlag {
		for _, a := range passes.All() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := selectAnalyzers(*onlyFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diverselint:", err)
		return 2
	}

	rest := fs.Args()
	if *auditFlag {
		return audit(rest)
	}
	return lint(rest, analyzers, lintOpts{
		tests:          *testsFlag,
		showSuppressed: *showSuppressed,
		jsonOut:        *jsonFlag,
		callgraphOut:   *callgraphFlag,
		hotOut:         *hotFlag,
	})
}

type lintOpts struct {
	tests          bool
	showSuppressed bool
	jsonOut        bool
	callgraphOut   bool
	hotOut         bool
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	all := passes.All()
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// lint loads the module around the working directory and lints
// the matching packages.
func lint(patterns []string, analyzers []*analysis.Analyzer, opts lintOpts) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "diverselint:", err)
		return 2
	}
	mod, err := analysis.FindModule(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diverselint:", err)
		return 2
	}
	paths, err := mod.ExpandPatterns(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diverselint:", err)
		return 2
	}
	loader := analysis.NewLoader(mod.Resolver())
	loader.GoVersion = mod.GoVersion
	loader.IncludeTests = opts.tests

	var pkgs []*analysis.Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "diverselint:", err)
			return 2
		}
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "diverselint: warning: %s: %v\n", p, terr)
		}
		pkgs = append(pkgs, pkg)
	}

	// Whole-program interprocedural state: the call graph and the
	// per-function summaries every pass can reach through Pass.Inter.
	prog := summary.Build(loader.Fset, pkgs, callgraph.Build(pkgs))
	if opts.callgraphOut {
		return emitCallgraph(prog)
	}
	if opts.hotOut {
		return emitHot(prog, pkgs, opts.jsonOut)
	}

	findings, err := analysis.Run(loader.Fset, pkgs, analyzers, prog)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diverselint:", err)
		return 2
	}
	if opts.jsonOut {
		return emitJSON(findings, buildHotReport(prog, pkgs))
	}
	unsuppressed := 0
	for _, f := range findings {
		if f.Suppressed {
			if opts.showSuppressed {
				fmt.Printf("%s: suppressed (%s): %s (%s)\n", f.Pos, f.Reason, f.Message, f.Analyzer)
			}
			continue
		}
		unsuppressed++
		fmt.Printf("%s\n", f)
	}
	if unsuppressed > 0 {
		fmt.Fprintf(os.Stderr, "diverselint: %d finding(s)\n", unsuppressed)
		return 1
	}
	return 0
}

// jsonFinding is the machine-readable form of one finding; the report
// wraps every finding (suppressed included) plus the two counts CI
// dashboards trend.
type jsonFinding struct {
	Analyzer   string `json:"analyzer"`
	File       string `json:"file"`
	Line       int    `json:"line"`
	Column     int    `json:"column"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
	Reason     string `json:"reason,omitempty"`
}

type jsonReport struct {
	Findings     []jsonFinding `json:"findings"`
	Unsuppressed int           `json:"unsuppressed"`
	Suppressed   int           `json:"suppressed"`
	// HotRoots is the -hot report inlined: every hotpath contract
	// with its allocation status, in deterministic root order.
	HotRoots []hotRoot `json:"hot_roots"`
}

func emitJSON(findings []analysis.Finding, hotRoots []hotRoot) int {
	rep := jsonReport{Findings: []jsonFinding{}, HotRoots: hotRoots}
	for _, f := range findings {
		rep.Findings = append(rep.Findings, jsonFinding{
			Analyzer:   f.Analyzer,
			File:       f.Pos.Filename,
			Line:       f.Pos.Line,
			Column:     f.Pos.Column,
			Message:    f.Message,
			Suppressed: f.Suppressed,
			Reason:     f.Reason,
		})
		if f.Suppressed {
			rep.Suppressed++
		} else {
			rep.Unsuppressed++
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "diverselint:", err)
		return 2
	}
	if rep.Unsuppressed > 0 {
		return 1
	}
	return 0
}

// audit walks every //diverselint: directive in the matched packages
// — parse-only, test files included — prints the inventory, and fails
// on directives that are malformed, name analyzers that do not exist,
// or misspell their verb (a typo there silently suppresses nothing or
// declares no contract: it deserves to break the build).
func audit(patterns []string) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "diverselint:", err)
		return 2
	}
	mod, err := analysis.FindModule(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diverselint:", err)
		return 2
	}
	paths, err := mod.ExpandPatterns(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "diverselint:", err)
		return 2
	}
	known := map[string]bool{"all": true}
	for _, a := range passes.All() {
		known[a.Name] = true
	}
	resolve := mod.Resolver()
	fset := token.NewFileSet()
	total, violations, pathDirs := 0, 0, 0
	for _, p := range paths {
		dir, ok := resolve(p)
		if !ok {
			fmt.Fprintf(os.Stderr, "diverselint: cannot resolve package %s\n", p)
			return 2
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "diverselint:", err)
			return 2
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil,
				parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				fmt.Fprintln(os.Stderr, "diverselint:", err)
				return 2
			}
			valid, malformed := analysis.FileSuppressions(fset, f)
			for _, m := range malformed {
				violations++
				fmt.Printf("%s: malformed //diverselint:ignore: need an analyzer list and a reason\n", m.Pos)
			}
			pathEntries, pathViolations := auditDirectives(fset, f)
			for _, v := range pathViolations {
				violations++
				fmt.Printf("%s\n", v)
			}
			for _, e := range pathEntries {
				pathDirs++
				fmt.Printf("%s\n", e)
			}
			for _, s := range valid {
				total++
				ok := true
				for _, name := range s.Analyzers {
					if !known[name] {
						violations++
						ok = false
						fmt.Printf("%s: //diverselint:ignore names unknown analyzer %q (use -list)\n", s.Pos, name)
					}
				}
				if ok {
					fmt.Printf("%s: %s: %s\n", s.Pos, strings.Join(s.Analyzers, ","), s.Reason)
				}
			}
		}
	}
	fmt.Fprintf(os.Stderr, "diverselint: audit: %d suppression(s), %d hotpath/coldpath directive(s), %d violation(s)\n", total, pathDirs, violations)
	if violations > 0 {
		return 1
	}
	return 0
}
