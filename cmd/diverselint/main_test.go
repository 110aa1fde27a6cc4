package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"diversecast/internal/analysis"
	"diversecast/internal/analysis/callgraph"
	"diversecast/internal/analysis/passes"
	"diversecast/internal/analysis/summary"
)

// TestSelfLint runs the full suite over this repository and demands a
// clean tree: every finding must be fixed or carry a justified
// //diverselint:ignore. This is the `make lint` gate in test form, so
// plain `go test ./...` already refuses a reintroduced bug class.
func TestSelfLint(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	mod, err := analysis.FindModule(cwd)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := mod.ExpandPatterns("./...")
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader(mod.Resolver())
	loader.GoVersion = mod.GoVersion
	loader.IncludeTests = true
	var pkgs []*analysis.Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			t.Fatalf("loading %s: %v", p, err)
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("type error in %s: %v", p, terr)
		}
		pkgs = append(pkgs, pkg)
	}
	prog := summary.Build(loader.Fset, pkgs, callgraph.Build(pkgs))
	findings, err := analysis.Run(loader.Fset, pkgs, passes.All(), prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if !f.Suppressed {
			t.Errorf("unsuppressed finding: %s", f)
		}
	}
}

// buildTool compiles the diverselint binary into a temp dir and
// returns its path.
func buildTool(t *testing.T) string {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	tool := filepath.Join(t.TempDir(), "diverselint")
	if out, err := exec.Command(gobin, "build", "-o", tool, ".").CombinedOutput(); err != nil {
		t.Fatalf("building diverselint: %v\n%s", err, out)
	}
	return tool
}

// writeModule lays out a throwaway single-package module and returns
// its directory.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "mod")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runTool executes the built binary in dir and returns its exit code
// with combined output.
func runTool(t *testing.T, tool, dir string, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(tool, args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running %s: %v\n%s", tool, err, out.String())
		}
		code = ee.ExitCode()
	}
	return code, out.String()
}

// TestJSONReport checks that -json emits a machine-readable report
// with the documented exit codes: 1 with the finding present, 0 once
// it is suppressed.
func TestJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary; skipped in -short")
	}
	tool := buildTool(t)
	modDir := writeModule(t, map[string]string{
		"go.mod": "module example.com/bad\n\ngo 1.24\n",
		"bad.go": `package bad

import "sync"

var mu sync.Mutex

func leak(bad bool) {
	mu.Lock()
	if bad {
		return
	}
	mu.Unlock()
}
`,
	})

	code, out := runTool(t, tool, modDir, "-json", "./...")
	if code != 1 {
		t.Fatalf("-json with a finding: exit %d, want 1\n%s", code, out)
	}
	var rep struct {
		Findings []struct {
			Analyzer   string `json:"analyzer"`
			Line       int    `json:"line"`
			Suppressed bool   `json:"suppressed"`
		} `json:"findings"`
		Unsuppressed int `json:"unsuppressed"`
		Suppressed   int `json:"suppressed"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if rep.Unsuppressed != 1 || len(rep.Findings) != 1 || rep.Findings[0].Analyzer != "lockbalance" {
		t.Fatalf("want one unsuppressed lockbalance finding, got %+v", rep)
	}

	// Suppress it: the report must still carry the finding (marked),
	// and the exit code must drop to 0.
	suppressed := strings.Replace(readFile(t, filepath.Join(modDir, "bad.go")),
		"\tmu.Lock()",
		"\t//diverselint:ignore lockbalance fixture keeps the lock on purpose\n\tmu.Lock()", 1)
	if err := os.WriteFile(filepath.Join(modDir, "bad.go"), []byte(suppressed), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out = runTool(t, tool, modDir, "-json", "./...")
	if code != 0 {
		t.Fatalf("-json with only a suppressed finding: exit %d, want 0\n%s", code, out)
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if rep.Unsuppressed != 0 || rep.Suppressed != 1 || len(rep.Findings) != 1 || !rep.Findings[0].Suppressed {
		t.Fatalf("want one suppressed finding in the report, got %+v", rep)
	}
}

// TestAuditMode checks that -audit inventories valid directives and
// fails on unknown analyzer names and missing reasons.
func TestAuditMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary; skipped in -short")
	}
	tool := buildTool(t)

	dirty := writeModule(t, map[string]string{
		"go.mod": "module example.com/sup\n\ngo 1.24\n",
		"sup.go": `package sup

//diverselint:ignore lockbalance fixture demonstrates the leak on purpose
var a = 0

//diverselint:ignore nosuchpass typo'd analyzer name
var b = 1

//diverselint:ignore floateq
var c = 2
`,
	})
	code, out := runTool(t, tool, dirty, "-audit", "./...")
	if code != 1 {
		t.Fatalf("-audit with violations: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, `unknown analyzer "nosuchpass"`) {
		t.Fatalf("missing unknown-analyzer violation:\n%s", out)
	}
	if !strings.Contains(out, "malformed //diverselint:ignore") {
		t.Fatalf("missing malformed-directive violation:\n%s", out)
	}

	clean := writeModule(t, map[string]string{
		"go.mod": "module example.com/sup\n\ngo 1.24\n",
		"sup.go": `package sup

//diverselint:ignore lockbalance fixture demonstrates the leak on purpose
var a = 0
`,
	})
	code, out = runTool(t, tool, clean, "-audit", "./...")
	if code != 0 {
		t.Fatalf("-audit on a clean tree: exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "fixture demonstrates the leak on purpose") {
		t.Fatalf("inventory does not list the suppression reason:\n%s", out)
	}
}

// TestCallgraphDump drives -callgraph end to end: the dump must be
// valid JSON carrying the summary facts the interprocedural passes
// run on (net-acquire effects, spawn sites, go/defer edge kinds), and
// two runs over the same tree must be byte-identical — the
// determinism contract CI relies on when diffing artifacts.
func TestCallgraphDump(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary; skipped in -short")
	}
	tool := buildTool(t)
	modDir := writeModule(t, map[string]string{
		"go.mod": "module example.com/cg\n\ngo 1.24\n",
		"cg.go": `package cg

import "sync"

type box struct {
	mu sync.Mutex
	n  int
}

func (b *box) lockIt() { b.mu.Lock() }

func (b *box) unlockIt() { b.mu.Unlock() }

func (b *box) Work() {
	b.lockIt()
	defer b.unlockIt()
	b.n++
	go b.tick()
}

func (b *box) tick() {}
`,
	})

	code, out := runTool(t, tool, modDir, "-callgraph", "./...")
	if code != 0 {
		t.Fatalf("-callgraph: exit %d, want 0\n%s", code, out)
	}
	var rep struct {
		Nodes []struct {
			Name       string   `json:"name"`
			NetAcquire []string `json:"net_acquire"`
			Spawns     int      `json:"spawns"`
		} `json:"nodes"`
		Edges []struct {
			Kind string `json:"kind"`
		} `json:"edges"`
		SCCs [][]int `json:"sccs"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-callgraph output is not JSON: %v\n%s", err, out)
	}

	byName := map[string]int{}
	for i, n := range rep.Nodes {
		byName[n.Name] = i
	}
	lockIt, ok := byName["(*example.com/cg.box).lockIt"]
	if !ok {
		t.Fatalf("dump has no (*example.com/cg.box).lockIt node: %v", byName)
	}
	if got := rep.Nodes[lockIt].NetAcquire; len(got) != 1 || got[0] != "example.com/cg.box.mu" {
		t.Errorf("lockIt net_acquire = %v, want [example.com/cg.box.mu]", got)
	}
	work, ok := byName["(*example.com/cg.box).Work"]
	if !ok || rep.Nodes[work].Spawns != 1 {
		t.Errorf("Work node: ok=%v spawns=%+v, want 1", ok, rep.Nodes[work])
	}
	kinds := map[string]bool{}
	for _, e := range rep.Edges {
		kinds[e.Kind] = true
	}
	for _, k := range []string{"call", "go", "defer"} {
		if !kinds[k] {
			t.Errorf("dump has no %q edge; kinds=%v", k, kinds)
		}
	}
	if len(rep.SCCs) != len(rep.Nodes) {
		t.Errorf("%d SCCs for %d nodes; the acyclic corpus should have one per node", len(rep.SCCs), len(rep.Nodes))
	}

	code2, out2 := runTool(t, tool, modDir, "-callgraph", "./...")
	if code2 != 0 || out2 != out {
		t.Errorf("-callgraph is not deterministic across runs (exit %d, %d bytes vs %d)", code2, len(out2), len(out))
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestHotReport drives -hot end to end over a module with one clean,
// one violating, and one fully suppressed hotpath contract: the
// statuses, the exit code, the hot_roots JSON section, and the
// byte-identical determinism of two consecutive runs.
func TestHotReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary; skipped in -short")
	}
	tool := buildTool(t)
	modDir := writeModule(t, map[string]string{
		"go.mod": "module example.com/hp\n\ngo 1.24\n",
		"hp.go": `package hp

//diverselint:hotpath summation must stay lean
func Cheap(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

//diverselint:hotpath growth fixture
func Grow(xs []int) []int {
	return append(xs, 1)
}

//diverselint:hotpath audited fixture
func Audited() *int {
	//diverselint:ignore hotalloc fixture keeps the allocation on purpose
	return new(int)
}
`,
	})

	code, out := runTool(t, tool, modDir, "-hot", "./...")
	if code != 1 {
		t.Fatalf("-hot with a violating root: exit %d, want 1\n%s", code, out)
	}
	for _, want := range []string{
		"hp.Cheap (summation must stay lean): clean",
		"hp.Grow (growth fixture): violating",
		"hp.Audited (audited fixture): suppressed",
		"fixture keeps the allocation on purpose",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-hot output missing %q:\n%s", want, out)
		}
	}

	code, jsonOut := runTool(t, tool, modDir, "-hot", "-json", "./...")
	if code != 1 {
		t.Fatalf("-hot -json: exit %d, want 1\n%s", code, jsonOut)
	}
	var rep struct {
		HotRoots []struct {
			Func      string `json:"func"`
			Note      string `json:"note"`
			Reachable int    `json:"reachable"`
			Status    string `json:"status"`
			Sites     []struct {
				Kind       string `json:"kind"`
				Suppressed bool   `json:"suppressed"`
				Reason     string `json:"reason"`
			} `json:"sites"`
		} `json:"hot_roots"`
	}
	if err := json.Unmarshal([]byte(jsonOut), &rep); err != nil {
		t.Fatalf("-hot -json output is not JSON: %v\n%s", err, jsonOut)
	}
	if len(rep.HotRoots) != 3 {
		t.Fatalf("want 3 hot roots, got %d:\n%s", len(rep.HotRoots), jsonOut)
	}
	status := map[string]string{}
	for _, r := range rep.HotRoots {
		status[r.Func] = r.Status
		if r.Reachable < 1 {
			t.Errorf("root %s: reachable %d, want >= 1", r.Func, r.Reachable)
		}
		if r.Func == "example.com/hp.Audited" {
			if len(r.Sites) != 1 || !r.Sites[0].Suppressed || r.Sites[0].Reason == "" {
				t.Errorf("Audited sites = %+v, want one suppressed with reason", r.Sites)
			}
		}
	}
	want := map[string]string{
		"example.com/hp.Cheap":   "clean",
		"example.com/hp.Grow":    "violating",
		"example.com/hp.Audited": "suppressed",
	}
	for fn, st := range want {
		if status[fn] != st {
			t.Errorf("root %s: status %q, want %q", fn, status[fn], st)
		}
	}

	// The plain -json lint report carries the same roots as its
	// hot_roots section.
	_, lintOut := runTool(t, tool, modDir, "-json", "./...")
	var lintRep struct {
		HotRoots []struct {
			Func string `json:"func"`
		} `json:"hot_roots"`
	}
	if err := json.Unmarshal([]byte(lintOut), &lintRep); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, lintOut)
	}
	if len(lintRep.HotRoots) != 3 {
		t.Errorf("-json hot_roots has %d roots, want 3:\n%s", len(lintRep.HotRoots), lintOut)
	}

	// Determinism: two runs must be byte-identical (the CI artifact
	// diff gate).
	_, jsonOut2 := runTool(t, tool, modDir, "-hot", "-json", "./...")
	if jsonOut2 != jsonOut {
		t.Errorf("-hot -json is not deterministic across runs (%d bytes vs %d)", len(jsonOut2), len(jsonOut))
	}
}

// TestAuditPathDirectives checks the -audit extension: hotpath and
// coldpath directives are inventoried, a reasonless coldpath and a
// directive outside a function doc comment are violations.
func TestAuditPathDirectives(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary; skipped in -short")
	}
	tool := buildTool(t)

	dirty := writeModule(t, map[string]string{
		"go.mod": "module example.com/hp\n\ngo 1.24\n",
		"hp.go": `package hp

//diverselint:hotpath fan-out must not allocate
func Hot() {}

//diverselint:coldpath
func Cold() {}

func misplaced() {
	//diverselint:hotpath inside a body has no effect
	_ = 0
}
`,
	})
	code, out := runTool(t, tool, dirty, "-audit", "./...")
	if code != 1 {
		t.Fatalf("-audit with path-directive violations: exit %d, want 1\n%s", code, out)
	}
	for _, want := range []string{
		"hotpath: fan-out must not allocate",
		"//diverselint:coldpath needs a reason",
		"outside a function doc comment has no effect",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-audit output missing %q:\n%s", want, out)
		}
	}

	clean := writeModule(t, map[string]string{
		"go.mod": "module example.com/hp\n\ngo 1.24\n",
		"hp.go": `package hp

//diverselint:hotpath fan-out must not allocate
func Hot() {}

//diverselint:coldpath construction happens once at startup
func Cold() {}
`,
	})
	code, out = runTool(t, tool, clean, "-audit", "./...")
	if code != 0 {
		t.Fatalf("-audit on a clean tree: exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "coldpath: construction happens once at startup") {
		t.Errorf("-audit inventory does not list the coldpath reason:\n%s", out)
	}
}

// TestAuditUnknownDirectiveVerbs: a misspelled verb and a verb with a
// glued suffix are directives nothing reads, so -audit must reject
// both instead of counting them as hotpath contracts.
func TestAuditUnknownDirectiveVerbs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary; skipped in -short")
	}
	tool := buildTool(t)
	dir := writeModule(t, map[string]string{
		"go.mod": "module example.com/hp\n\ngo 1.24\n",
		"hp.go": `package hp

//diverselint:hotpth fan-out must not allocate
func Typo() {}

//diverselint:hotpathX fan-out must not allocate
func Glued() {}
`,
	})
	code, out := runTool(t, tool, dir, "-audit", "./...")
	if code != 1 {
		t.Fatalf("-audit with unknown verbs: exit %d, want 1\n%s", code, out)
	}
	for _, want := range []string{
		"unknown directive //diverselint:hotpth",
		"unknown directive //diverselint:hotpathX",
		"0 hotpath/coldpath directive(s), 2 violation(s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-audit output missing %q:\n%s", want, out)
		}
	}
}
