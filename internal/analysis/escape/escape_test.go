package escape_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diversecast/internal/analysis"
	"diversecast/internal/analysis/callgraph"
	"diversecast/internal/analysis/escape"
)

func buildCorpus(t *testing.T) (*escape.Program, *callgraph.Graph) {
	t.Helper()
	loader := analysis.NewLoader(func(path string) (string, bool) {
		dir := filepath.Join("testdata", "src", filepath.FromSlash(path))
		st, err := os.Stat(dir)
		return dir, err == nil && st.IsDir()
	})
	pkg, err := loader.Load("esc")
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("corpus type error: %v", terr)
	}
	pkgs := []*analysis.Package{pkg}
	g := callgraph.Build(pkgs)
	return escape.Build(loader.Fset, pkgs, g), g
}

func node(t *testing.T, g *callgraph.Graph, name string) *callgraph.Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("no call-graph node named %s", name)
	return nil
}

func TestDirectives(t *testing.T) {
	p, g := buildCorpus(t)

	if len(p.Malformed) != 1 {
		t.Fatalf("Malformed = %d entries, want 1 (the reasonless coldpath)", len(p.Malformed))
	}
	if msg := p.Malformed[0].Msg; !strings.Contains(msg, "needs a reason") {
		t.Errorf("malformed message = %q, want it to demand a reason", msg)
	}

	good := p.Of(node(t, g, "esc.goodCold"))
	if !good.Cold || good.ColdReason != "genuinely startup-only" {
		t.Errorf("goodCold: Cold=%v ColdReason=%q, want true/\"genuinely startup-only\"", good.Cold, good.ColdReason)
	}
	if bad := p.Of(node(t, g, "esc.badCold")); bad.Cold {
		t.Error("badCold: a reasonless coldpath must not take effect")
	}
}

func TestHotChain(t *testing.T) {
	p, g := buildCorpus(t)

	if len(p.Roots) != 1 {
		t.Fatalf("Roots = %d, want 1", len(p.Roots))
	}
	r := p.Roots[0]
	if r.Node.Name != "esc.Root" || r.Note != "kernel" {
		t.Fatalf("root = %s note %q, want esc.Root note \"kernel\"", r.Node.Name, r.Note)
	}

	allocN := node(t, g, "esc.alloc")
	if !r.Reached(node(t, g, "esc.wrap")) || !r.Reached(allocN) {
		t.Fatal("root must reach wrap and alloc")
	}
	chain := r.Chain(allocN)
	var names []string
	for _, n := range chain {
		names = append(names, n.Name)
	}
	if got := strings.Join(names, " "); got != "esc.Root esc.wrap esc.alloc" {
		t.Errorf("Chain(alloc) = %q, want the two-hop path", got)
	}
	if via := r.Via(allocN); via != "esc.wrap -> esc.alloc" {
		t.Errorf("Via(alloc) = %q", via)
	}

	if r.Reached(node(t, g, "esc.gated")) {
		t.Error("gated is never called from the root and must not be reached")
	}

	fs := p.HotFindings()
	if len(fs) != 1 {
		t.Fatalf("HotFindings = %d, want exactly alloc's make", len(fs))
	}
	if fs[0].Node != allocN || fs[0].Site.Kind != escape.Make {
		t.Errorf("finding = %s %v, want esc.alloc make", fs[0].Node.Name, fs[0].Site.Kind)
	}
}

func TestPropagation(t *testing.T) {
	p, g := buildCorpus(t)

	al := p.Of(node(t, g, "esc.alloc"))
	if !al.SelfAllocates() || !al.Allocates || al.AllocVia != "" {
		t.Errorf("alloc: self=%v alloc=%v via=%q, want direct allocation", al.SelfAllocates(), al.Allocates, al.AllocVia)
	}
	wr := p.Of(node(t, g, "esc.wrap"))
	if wr.SelfAllocates() || !wr.Allocates || wr.AllocVia != "esc.alloc" {
		t.Errorf("wrap: self=%v alloc=%v via=%q, want transitive via esc.alloc", wr.SelfAllocates(), wr.Allocates, wr.AllocVia)
	}
	if rt := p.Of(node(t, g, "esc.Root")); !rt.Allocates {
		t.Error("Root must inherit the Allocates bit")
	}

	// The mutually recursive pair converges: both allocate (recurB
	// directly, recurA through it).
	if ra := p.Of(node(t, g, "esc.recurA")); !ra.Allocates || ra.AllocVia != "esc.recurB" {
		t.Errorf("recurA: alloc=%v via=%q, want true via esc.recurB", ra.Allocates, ra.AllocVia)
	}
	if rb := p.Of(node(t, g, "esc.recurB")); !rb.Allocates || !rb.SelfAllocates() {
		t.Error("recurB must allocate directly")
	}
}

func TestSitesDepthGatesPrealloc(t *testing.T) {
	p, g := buildCorpus(t)

	gt := p.Of(node(t, g, "esc.gated"))
	if len(gt.Sites) != 1 || !gt.Sites[0].Gated {
		t.Fatalf("gated: %d sites, want one gated make", len(gt.Sites))
	}
	if gt.SelfAllocates() || gt.Allocates {
		t.Error("a fully gated function does not allocate on the disabled path")
	}

	lp := p.Of(node(t, g, "esc.loopy"))
	if len(lp.Sites) != 2 {
		t.Fatalf("loopy: %d sites, want 2 makes (the preallocated append is exempt)", len(lp.Sites))
	}
	for _, s := range lp.Sites {
		if s.Kind == escape.Append {
			t.Errorf("loopy: append to a capacity-preallocated local must not be a site: %s", s.What)
		}
	}
	if d0, d1 := lp.Sites[0].Depth, lp.Sites[1].Depth; d0 != 0 || d1 != 1 {
		t.Errorf("loopy depths = %d,%d, want 0 (hoisted) and 1 (in loop)", d0, d1)
	}
}

func TestShortName(t *testing.T) {
	cases := map[string]string{
		"(*diversecast/internal/core.batchedSelector).repair": "(*core.batchedSelector).repair",
		"diversecast/internal/netcast.NewServer":              "netcast.NewServer",
		"esc.Root":                                            "esc.Root",
		"hot.Apply$0":                                         "hot.Apply$0",
		"(trace.Span).Active":                                 "(trace.Span).Active",
	}
	for in, want := range cases {
		if got := escape.ShortName(in); got != want {
			t.Errorf("ShortName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHotPackage(t *testing.T) {
	for path, want := range map[string]bool{
		"diversecast/internal/core":      true,
		"diversecast/internal/netcast":   true,
		"diversecast/internal/pool":      true,
		"diversecast/internal/obs":       true,
		"diversecast/internal/obs/trace": true,
		"core":                           true,
		"diversecast/internal/analysis":  false,
		"plain":                          false,
	} {
		if got := escape.HotPackage(path); got != want {
			t.Errorf("HotPackage(%q) = %v, want %v", path, got, want)
		}
	}
}
