package analysis_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"diversecast/internal/analysis"
	"diversecast/internal/analysis/callgraph"
	"diversecast/internal/analysis/passes"
	"diversecast/internal/analysis/summary"
)

// writeModule materializes a throwaway module on disk and returns its
// root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const testGoMod = "module example.com/m\n\ngo 1.24\n"

// lintModule loads every package of the module at root and runs the
// full diverselint suite.
func lintModule(t *testing.T, root string) []analysis.Finding {
	t.Helper()
	mod, err := analysis.FindModule(root)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := mod.ExpandPatterns("./...")
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader(mod.Resolver())
	loader.GoVersion = mod.GoVersion
	var pkgs []*analysis.Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			t.Fatal(err)
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
	return findings
}

// TestReintroducedBugClassesAreCaught reconstructs the reintroduced
// bug shapes the acceptance criteria name — a map-order cost
// accumulation, the stranded writeLoop goroutine, an early-return
// lock leak, wall-clock cost jitter, a dropped hot-path error and a
// hot-path allocation — and asserts the suite flags every one (this is the tripwire that
// makes `make lint` fail if any is reintroduced).
func TestReintroducedBugClassesAreCaught(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": testGoMod,
		// The stranded writeLoop, byte for byte the PR-1 shape: the
		// goroutine ranges a channel nothing in the package closes.
		"netcast/client.go": `package netcast

type client struct {
	out  chan []byte
	last []byte
}

func (c *client) start() {
	go c.writeLoop()
}

func (c *client) writeLoop() {
	for m := range c.out {
		c.last = m
	}
}
`,
		"netcast/registry.go": `package netcast

import "sync"

type registry struct {
	mu sync.Mutex
	n  int
}

func (r *registry) bump(bad bool) error {
	r.mu.Lock()
	if bad {
		return errStop
	}
	r.n++
	r.mu.Unlock()
	return nil
}

var errStop = &stopErr{}

type stopErr struct{}

func (*stopErr) Error() string { return "stop" }
`,
		"core/cost.go": `package core

func Cost(groups map[int]struct{ F, Z float64 }) float64 {
	var total float64
	for _, g := range groups {
		total += g.F * g.Z
	}
	return total
}
`,
		"core/jitter.go": `package core

import "time"

func Jitter(xs []float64) float64 {
	t := 0.0
	for range xs {
		t += float64(time.Now().UnixNano())
	}
	return t
}
`,
		"wire/wire.go": `package wire

import "errors"

func WriteJSON(v any) error { return errors.New("short write") }
`,
		"core/emit.go": `package core

import "example.com/m/wire"

func Emit(v any) {
	wire.WriteJSON(v)
}
`,
		// The PR-9 hot-path allocation shape: a label formatted per
		// item inside a hotpath root's sweep loop. One line trips both
		// escape passes — the fmt.Sprintf call allocates and boxes its
		// int argument (hotalloc), and the site sits in a loop of a
		// hot package (loopalloc).
		"core/sweep.go": `package core

import "fmt"

//diverselint:hotpath per-move sweep must not format
func Sweep(xs []int) string {
	var last string
	for _, x := range xs {
		last = fmt.Sprintf("item-%d", x)
	}
	return last
}
`,
		// The defer-in-loop shape: each iteration allocates a defer
		// record that only runs at function exit.
		"netcast/flush.go": `package netcast

func flushAll(fns []func()) {
	for _, fn := range fns {
		defer fn()
	}
}
`,
	})
	findings := lintModule(t, root)
	want := map[string]bool{
		"floatdet":    false,
		"goroleak":    false,
		"lockbalance": false,
		"detrand":     false,
		"errdrop":     false,
		"hotalloc":    false,
		"loopalloc":   false,
	}
	for _, f := range findings {
		if f.Suppressed {
			t.Errorf("unexpected suppression: %s", f)
		}
		if _, ok := want[f.Analyzer]; ok {
			want[f.Analyzer] = true
		}
	}
	for name, hit := range want {
		if !hit {
			t.Errorf("reintroduced %s bug class not flagged; findings: %v", name, findings)
		}
	}
}

// TestSuppressionDirectives checks the //diverselint:ignore contract:
// same-line and preceding-line directives suppress (with the reason
// captured), a directive for a different analyzer does not, and a
// reasonless directive is itself a finding.
func TestSuppressionDirectives(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": testGoMod,
		"a/a.go": `package a

func sameLine(m map[int]float64) float64 {
	var s float64
	for _, v := range m {
		s += v //diverselint:ignore floatdet low bits immaterial here
	}
	return s
}

func precedingLine(m map[int]float64) float64 {
	var s float64
	for _, v := range m {
		//diverselint:ignore floatdet low bits immaterial here
		s += v
	}
	return s
}

func wrongAnalyzer(m map[int]float64) float64 {
	var s float64
	for _, v := range m {
		s += v //diverselint:ignore floateq wrong analyzer name
	}
	return s
}

func noReason(m map[int]float64) float64 {
	var s float64
	for _, v := range m {
		s += v //diverselint:ignore floatdet
	}
	return s
}
`,
	})
	findings := lintModule(t, root)
	var suppressed, unsuppressed, malformed int
	for _, f := range findings {
		switch {
		case f.Analyzer == "ignorespec":
			malformed++
		case f.Suppressed:
			suppressed++
			if f.Reason == "" {
				t.Errorf("suppressed finding lost its reason: %s", f)
			}
		default:
			unsuppressed++
		}
	}
	// sameLine + precedingLine suppressed; wrongAnalyzer + noReason
	// still flagged; the reasonless directive adds one ignorespec.
	if suppressed != 2 || unsuppressed != 2 || malformed != 1 {
		t.Errorf("got %d suppressed, %d unsuppressed, %d malformed; want 2, 2, 1\nfindings: %v",
			suppressed, unsuppressed, malformed, findings)
	}
}

// TestCleanModule: a module using all the blessed patterns yields no
// findings.
func TestCleanModule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": testGoMod,
		"a/a.go": `package a

import "sort"

func cost(groups map[int]float64) float64 {
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var total float64
	for _, k := range keys {
		total += groups[k]
	}
	return total
}
`,
	})
	for _, f := range lintModule(t, root) {
		t.Errorf("unexpected finding on clean module: %s", f)
	}
}

// TestLoaderHonorsBuildConstraints: a file, its constrained-out
// fallback and a file for another GOOS declare the same function;
// loading more than one would be a redeclaration type error, which
// lintModule reports.
func TestLoaderHonorsBuildConstraints(t *testing.T) {
	otherOS := "plan9"
	if runtime.GOOS == otherOS {
		otherOS = "windows"
	}
	root := writeModule(t, map[string]string{
		"go.mod": testGoMod,
		"a/on.go": `//go:build !diverselint_never

package a

func f() int { return 1 }
`,
		"a/off.go": `//go:build diverselint_never

package a

func f() int { return 2 }
`,
		"a/f_" + otherOS + ".go": `package a

func f() int { return 3 }
`,
	})
	for _, f := range lintModule(t, root) {
		t.Errorf("unexpected finding: %s", f)
	}
}
