package summary_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diversecast/internal/analysis"
	"diversecast/internal/analysis/callgraph"
	"diversecast/internal/analysis/summary"
)

func buildProgram(t *testing.T, files map[string]string) *summary.Program {
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
	g := callgraph.Build(pkgs)
	return summary.Build(loader.Fset, pkgs, g)
}

func nodeNamed(t *testing.T, p *summary.Program, suffix string) *summary.FuncSummary {
	t.Helper()
	for _, n := range p.Graph.Nodes {
		if strings.HasSuffix(n.Name, suffix) {
			if s := p.Of(n); s != nil {
				return s
			}
			t.Fatalf("node %q has no summary", suffix)
		}
	}
	t.Fatalf("no node %q", suffix)
	return nil
}

const gomod = "module example.com/m\n\ngo 1.24\n"

func TestNetEffectsAndHelpers(t *testing.T) {
	p := buildProgram(t, map[string]string{
		"go.mod": gomod,
		"a/a.go": `package a

import "sync"

type box struct {
	mu sync.Mutex
	n  int
}

func (b *box) lock()   { b.mu.Lock() }
func (b *box) unlock() { b.mu.Unlock() }

func (b *box) balanced() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

func (b *box) deferred() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
}

func (b *box) viaHelper() {
	b.lock()
	b.n++
	b.unlock()
}
`,
	})
	const mu = summary.LockID("example.com/m/a.box.mu")

	lock := nodeNamed(t, p, ".lock")
	if _, ok := lock.NetAcquire[mu]; !ok {
		t.Errorf("lock(): NetAcquire = %v, want %s", lock.NetAcquire, mu)
	}
	unlock := nodeNamed(t, p, ".unlock")
	if !unlock.NetRelease[mu] {
		t.Errorf("unlock(): NetRelease = %v, want %s", unlock.NetRelease, mu)
	}
	for _, name := range []string{".balanced", ".deferred", ".viaHelper"} {
		s := nodeNamed(t, p, name)
		if len(s.NetAcquire) != 0 || len(s.NetRelease) != 0 {
			t.Errorf("%s: net effects %v/%v, want none", name, s.NetAcquire, s.NetRelease)
		}
	}
}

func TestEntryHeldPropagation(t *testing.T) {
	p := buildProgram(t, map[string]string{
		"go.mod": gomod,
		"a/a.go": `package a

import "sync"

type box struct {
	mu sync.Mutex
	n  int
}

// bump is only ever called with mu held.
func (b *box) bump() { b.n++ }

func (b *box) Incr() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.bump()
}

func (b *box) Twice() {
	b.mu.Lock()
	b.bump()
	b.bump()
	b.mu.Unlock()
}

// spawned runs on its own goroutine: no inherited locks.
func (b *box) spawned() { b.n++ }

func (b *box) Kick() {
	b.mu.Lock()
	defer b.mu.Unlock()
	go b.spawned()
}
`,
	})
	const mu = summary.LockID("example.com/m/a.box.mu")

	bump := nodeNamed(t, p, ".bump")
	if !bump.EntryHeld[mu] {
		t.Errorf("bump(): EntryHeld = %v, want %s (every caller holds it)", bump.EntryHeld, mu)
	}
	spawned := nodeNamed(t, p, ".spawned")
	if len(spawned.EntryHeld) != 0 {
		t.Errorf("spawned(): EntryHeld = %v, want empty (go target inherits nothing)", spawned.EntryHeld)
	}
	// Exported functions are roots.
	incr := nodeNamed(t, p, ".Incr")
	if len(incr.EntryHeld) != 0 {
		t.Errorf("Incr(): EntryHeld = %v, want empty (exported root)", incr.EntryHeld)
	}
	kick := nodeNamed(t, p, ".Kick")
	if len(kick.Spawns) != 1 {
		t.Fatalf("Kick(): %d spawn sites, want 1", len(kick.Spawns))
	}
	if kick.Spawns[0].Callee == nil || !strings.HasSuffix(kick.Spawns[0].Callee.Name, ".spawned") {
		t.Errorf("Kick(): spawn callee = %v, want spawned", kick.Spawns[0].Callee)
	}
}

func TestAcquireSitesAndHeld(t *testing.T) {
	p := buildProgram(t, map[string]string{
		"go.mod": gomod,
		"a/a.go": `package a

import "sync"

type pair struct {
	a, b sync.Mutex
	n    int
}

func (p *pair) Nested() {
	p.a.Lock()
	p.b.Lock()
	p.n++
	p.b.Unlock()
	p.a.Unlock()
}
`,
	})
	s := nodeNamed(t, p, ".Nested")
	if len(s.Acquires) != 2 {
		t.Fatalf("%d acquire sites, want 2", len(s.Acquires))
	}
	second := s.Acquires[1]
	if second.Lock != "example.com/m/a.pair.b" {
		t.Errorf("second acquire = %s, want pair.b", second.Lock)
	}
	if !second.Held["example.com/m/a.pair.a"] {
		t.Errorf("pair.b acquired with held=%v, want pair.a held", second.Held)
	}
}

func TestHotErrorPropagation(t *testing.T) {
	p := buildProgram(t, map[string]string{
		"go.mod": gomod,
		"wire/wire.go": `package wire

import "errors"

func Send() error { return errors.New("boom") }
`,
		"a/a.go": `package a

import "example.com/m/wire"

// frame1 returns the hot error directly.
func frame1() error { return wire.Send() }

// frame2 propagates it through a local.
func frame2() error {
	err := frame1()
	return err
}

// frame3 propagates frame2's — three frames from the wire call.
func frame3() error { return frame2() }

// cold never touches a hot package.
func cold() error { return nil }
`,
	})
	for _, name := range []string{".frame1", ".frame2", ".frame3"} {
		if s := nodeNamed(t, p, name); !s.HotError {
			t.Errorf("%s: HotError = false, want true", name)
		}
	}
	if s := nodeNamed(t, p, ".cold"); s.HotError {
		t.Error("cold(): HotError = true, want false")
	}
}
