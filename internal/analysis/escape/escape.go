// Package escape computes per-function allocation summaries over the
// cfg and callgraph layers — the performance analogue of the lock
// summaries in internal/analysis/summary, and the shared substrate of
// the hotalloc and loopalloc passes.
//
// For every function body the collector records each syntactic
// allocation site: composite literals of slice/map kind (and &T{}
// escapes), make/new, append that may grow, map writes, string↔[]byte
// conversions and string concatenation, interface boxing at call
// sites (including any/error variadics), closures that capture
// enclosing variables, calls into known-allocating stdlib families
// (fmt, errors.New/Join, the time.NewTimer class, strconv
// formatting), go statements, and defer inside a loop. Each site
// carries its loop nesting depth — computed from the CFG by peeling
// strongly connected components, so goto- and labeled-branch loops
// count exactly like for/range — and a Gated bit for sites that can
// only execute when tracing is enabled (see gates.go): the
// disabled-trace path is the hot contract, so gated sites are exempt
// everywhere.
//
// The per-function Allocates bit then propagates bottom-up over the
// call-graph SCC condensation exactly like summary.Build: a function
// allocates if it has an ungated site of its own, or if any ungated
// Call/Defer site reaches an in-program callee that allocates. Within
// a mutually recursive component the (monotone, boolean) facts
// iterate to a fixpoint.
//
// Hot-path contracts are declared in doc comments:
//
//	//diverselint:hotpath [note]    — this function and everything it
//	                                  reaches synchronously must not
//	                                  allocate
//	//diverselint:coldpath <reason> — prune this function from hot
//	                                  reachability (and exempt it from
//	                                  loopalloc); the reason is
//	                                  mandatory and audited
//
// Reachability from each root follows Call and Defer edges, plus Ref
// edges to function literals (a closure defined in hot code runs hot
// work — the worker bodies handed to pool.Run live here). Go edges
// are not followed (a spawned goroutine is the spawn site's cost, not
// the hot path's), test-file functions are skipped, and edges whose
// site sits in a gated region are pruned along with coldpath-marked
// callees. Everything — node order, site order, root order — is
// deterministic, inherited from the callgraph builder's ID order and
// source positions.
package escape

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"diversecast/internal/analysis"
	"diversecast/internal/analysis/callgraph"
	"diversecast/internal/analysis/cfg"
)

// A SiteKind classifies one allocation site.
type SiteKind int

const (
	// Composite is a slice or map composite literal, or a struct
	// literal whose address is taken (&T{...}).
	Composite SiteKind = iota
	// Make is a make() of a slice, map, or channel.
	Make
	// New is a new(T).
	New
	// Append is an append whose destination is not provably
	// preallocated (see prealloc.go); it may grow the backing array.
	Append
	// MapWrite is m[k] = v — bucket growth can allocate.
	MapWrite
	// StringConv is a string↔[]byte/[]rune conversion or a
	// non-constant string concatenation.
	StringConv
	// Box is a concrete non-pointer-shaped value converted to an
	// interface at a call site (including any/error variadics) — the
	// trace-attr and metrics-label class.
	Box
	// Closure is a function literal that captures variables of its
	// enclosing function (the captures force a heap closure when the
	// literal escapes).
	Closure
	// AllocCall is a call into a known-allocating stdlib family:
	// fmt.*, errors.New/Join, time.NewTimer/NewTicker/After/Tick,
	// strconv formatting.
	AllocCall
	// GoSpawn is a go statement: a new goroutine is an allocation.
	GoSpawn
	// DeferLoop is a defer registered inside a loop — each iteration
	// heap-allocates a defer record (a depth-0 defer is open-coded and
	// free, so it is not a site).
	DeferLoop
)

func (k SiteKind) String() string {
	switch k {
	case Composite:
		return "composite"
	case Make:
		return "make"
	case New:
		return "new"
	case Append:
		return "append"
	case MapWrite:
		return "mapwrite"
	case StringConv:
		return "stringconv"
	case Box:
		return "box"
	case Closure:
		return "closure"
	case AllocCall:
		return "alloccall"
	case GoSpawn:
		return "go"
	case DeferLoop:
		return "deferloop"
	}
	return "site"
}

// A Site is one syntactic allocation in a function body.
type Site struct {
	Kind SiteKind
	Pos  token.Pos
	// Depth is the loop nesting depth from the CFG (0 = straight-line
	// code).
	Depth int
	// Gated marks sites that execute only when tracing is enabled —
	// exempt from every allocation contract (the contract covers the
	// disabled path).
	Gated bool
	// What is the rendered description ("make([]int, n)", "x boxed
	// into interface argument of fmt.Sprintf", ...).
	What string
}

// A FuncInfo is one function's allocation summary.
type FuncInfo struct {
	Node *callgraph.Node
	// Sites lists the function's own allocation sites in source order.
	Sites []*Site

	// HotRoot marks a //diverselint:hotpath declaration; HotNote is
	// its optional trailing note.
	HotRoot bool
	HotNote string
	// Cold marks a //diverselint:coldpath declaration; ColdReason is
	// its mandatory reason.
	Cold       bool
	ColdReason string

	// Allocates reports whether the function allocates on the
	// disabled-trace path, directly or through any ungated Call/Defer
	// callee (transitive, SCC fixpoint).
	Allocates bool
	// AllocVia names the first callee responsible when the function
	// has no ungated site of its own ("" when it allocates directly or
	// not at all).
	AllocVia string

	gated []posRange
}

// SelfAllocates reports whether the function has an ungated
// allocation site of its own.
func (fi *FuncInfo) SelfAllocates() bool {
	for _, s := range fi.Sites {
		if !s.Gated {
			return true
		}
	}
	return false
}

// GatedAt reports whether pos lies in a region that only executes
// when tracing is enabled.
func (fi *FuncInfo) GatedAt(pos token.Pos) bool {
	for _, r := range fi.gated {
		if pos >= r.from && pos < r.to {
			return true
		}
	}
	return false
}

type posRange struct{ from, to token.Pos }

// A Malformed records a directive that does not parse — today only a
// coldpath without its mandatory reason. hotalloc reports these.
type Malformed struct {
	Pos token.Pos
	Msg string
}

// A Root is one //diverselint:hotpath function with its reachable
// set.
type Root struct {
	Node *callgraph.Node
	Note string
	// Order is the BFS visit order from the root (the root itself
	// first) — deterministic, and the order findings are emitted in.
	Order []*callgraph.Node

	reached map[*callgraph.Node]*callgraph.Edge
}

// Reached reports whether n is hot-reachable from the root.
func (r *Root) Reached(n *callgraph.Node) bool {
	_, ok := r.reached[n]
	return ok
}

// Chain returns the call chain root..n along first-reach (BFS,
// shortest) edges. The root's own chain is [root].
func (r *Root) Chain(n *callgraph.Node) []*callgraph.Node {
	if _, ok := r.reached[n]; !ok {
		return nil
	}
	var rev []*callgraph.Node
	for cur := n; cur != nil; {
		rev = append(rev, cur)
		e := r.reached[cur]
		if e == nil {
			break
		}
		cur = e.Caller
	}
	out := make([]*callgraph.Node, len(rev))
	for i, n := range rev {
		out[len(rev)-1-i] = n
	}
	return out
}

// A Program is the whole-program allocation summary set.
type Program struct {
	Fset  *token.FileSet
	Graph *callgraph.Graph
	// Funcs has one summary per call-graph node with a body.
	Funcs map[*callgraph.Node]*FuncInfo
	// Roots lists the //diverselint:hotpath functions in node-ID
	// order.
	Roots []*Root
	// Malformed lists unparsable directives, in position order per the
	// deterministic node walk.
	Malformed []Malformed

	inProgram map[string]bool
}

// Of returns n's allocation summary, nil for bodyless nodes.
func (p *Program) Of(n *callgraph.Node) *FuncInfo { return p.Funcs[n] }

// A HotFinding couples one ungated allocation site with the hot root
// that reaches it.
type HotFinding struct {
	Root *Root
	Node *callgraph.Node
	Site *Site
}

// HotFindings returns every ungated site reachable from any hot root,
// deduplicated (the first root in ID order claims a site), in
// deterministic root/BFS/source order. Passes filter by Kind.
func (p *Program) HotFindings() []HotFinding {
	type key struct {
		pos  token.Pos
		kind SiteKind
	}
	seen := make(map[key]bool)
	var out []HotFinding
	for _, r := range p.Roots {
		for _, f := range p.RootFindings(r) {
			k := key{f.Site.Pos, f.Site.Kind}
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, f)
		}
	}
	return out
}

// RootFindings returns every ungated site reachable from one root, in
// BFS-then-source order (no cross-root deduplication — the -hot
// report wants each root's full view).
func (p *Program) RootFindings(r *Root) []HotFinding {
	var out []HotFinding
	for _, n := range r.Order {
		fi := p.Funcs[n]
		if fi == nil {
			continue
		}
		for _, s := range fi.Sites {
			if s.Gated {
				continue
			}
			out = append(out, HotFinding{Root: r, Node: n, Site: s})
		}
	}
	return out
}

// InProgram reports whether the package path belongs to the analyzed
// program.
func (p *Program) InProgram(path string) bool { return p.inProgram[path] }

// Build computes allocation summaries for every function in the
// graph: directive scan, per-body site collection, bottom-up SCC
// propagation of the Allocates bit, then hot-root reachability.
func Build(fset *token.FileSet, pkgs []*analysis.Package, g *callgraph.Graph) *Program {
	p := &Program{
		Fset:      fset,
		Graph:     g,
		Funcs:     make(map[*callgraph.Node]*FuncInfo),
		inProgram: make(map[string]bool),
	}
	for _, pkg := range pkgs {
		p.inProgram[pkg.Path] = true
	}

	for _, n := range g.Nodes {
		if n.Body == nil {
			continue
		}
		fi := &FuncInfo{Node: n}
		p.Funcs[n] = fi
	}
	p.scanDirectives(pkgs)
	for _, n := range g.Nodes {
		if fi := p.Funcs[n]; fi != nil {
			p.collect(fi)
		}
	}
	p.propagate()
	p.findRoots()
	return p
}

// scanDirectives reads hotpath/coldpath directives off function doc
// comments, in package/file/decl order.
func (p *Program) scanDirectives(pkgs []*analysis.Package) {
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				node := p.Graph.NodeFor(fn)
				fi := p.Funcs[node]
				for _, c := range fd.Doc.List {
					verb, rest, _ := analysis.ParseDirective(c)
					switch {
					case verb == "hotpath":
						if fi != nil {
							fi.HotRoot = true
							fi.HotNote = rest
						}
					case verb == "coldpath" && rest == "":
						p.Malformed = append(p.Malformed, Malformed{
							Pos: c.Pos(),
							Msg: "//diverselint:coldpath needs a reason (why is this function off the hot path?)",
						})
					case verb == "coldpath":
						if fi != nil {
							fi.Cold = true
							fi.ColdReason = rest
						}
					}
				}
			}
		}
	}
}

// propagate runs the bottom-up SCC fixpoint on the Allocates bit.
func (p *Program) propagate() {
	for _, scc := range p.Graph.SCCs {
		recursive := len(scc) > 1
		if !recursive {
			for _, e := range scc[0].Out {
				if e.Callee == scc[0] {
					recursive = true
					break
				}
			}
		}
		for round := 0; ; round++ {
			changed := false
			for _, n := range scc {
				fi := p.Funcs[n]
				if fi == nil {
					continue
				}
				alloc, via := p.computeAllocates(fi)
				if alloc != fi.Allocates {
					changed = true
				}
				fi.Allocates = alloc
				fi.AllocVia = via
			}
			if !recursive || !changed || round >= 4 {
				break
			}
		}
	}
}

// computeAllocates folds the function's own ungated sites with its
// ungated Call/Defer callees' bits.
func (p *Program) computeAllocates(fi *FuncInfo) (bool, string) {
	if fi.SelfAllocates() {
		return true, ""
	}
	for _, e := range fi.Node.Out {
		if e.Kind != callgraph.Call && e.Kind != callgraph.Defer {
			continue
		}
		if fi.GatedAt(e.Pos) {
			continue
		}
		cs := p.Funcs[e.Callee]
		if cs != nil && cs.Allocates {
			return true, e.Callee.Name
		}
	}
	return false, ""
}

// findRoots collects the hotpath roots in node-ID order and runs the
// reachability BFS for each.
func (p *Program) findRoots() {
	for _, n := range p.Graph.Nodes {
		fi := p.Funcs[n]
		if fi == nil || !fi.HotRoot {
			continue
		}
		r := &Root{
			Node:    n,
			Note:    fi.HotNote,
			reached: map[*callgraph.Node]*callgraph.Edge{n: nil},
		}
		queue := []*callgraph.Node{n}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			r.Order = append(r.Order, cur)
			curInfo := p.Funcs[cur]
			for _, e := range cur.Out {
				if !p.followEdge(curInfo, e) {
					continue
				}
				if _, ok := r.reached[e.Callee]; ok {
					continue
				}
				r.reached[e.Callee] = e
				queue = append(queue, e.Callee)
			}
		}
		p.Roots = append(p.Roots, r)
	}
}

// followEdge applies the hot-reachability pruning rules: Call/Defer
// always, Ref only to function literals, never Go; gated sites,
// coldpath callees, bodyless callees, and test-file callees prune.
func (p *Program) followEdge(caller *FuncInfo, e *callgraph.Edge) bool {
	switch e.Kind {
	case callgraph.Call, callgraph.Defer:
	case callgraph.Ref:
		if e.Callee.Lit == nil {
			return false
		}
	default: // Go
		return false
	}
	if e.Callee.Body == nil {
		return false
	}
	if caller != nil && caller.GatedAt(e.Pos) {
		return false
	}
	ci := p.Funcs[e.Callee]
	if ci == nil || ci.Cold {
		return false
	}
	if strings.HasSuffix(p.Fset.Position(e.Callee.Pos).Filename, "_test.go") {
		return false
	}
	return true
}

// collect fills one function's gates, loop depths, and sites (see
// sites.go / gates.go / depth.go).
func (p *Program) collect(fi *FuncInfo) {
	n := fi.Node
	g := cfg.New(n.Body, cfg.Options{NoReturn: cfg.NoReturn(n.Pkg.TypesInfo)})
	nodeDepth := nodeDepths(g)
	fi.gated = gatedRanges(n.Pkg.TypesInfo, n.Body)
	c := &collector{
		p:    p,
		fi:   fi,
		info: n.Pkg.TypesInfo,
		fset: p.Fset,

		nodeDepth: nodeDepth,
		prealloc:  preallocVars(n.Pkg.TypesInfo, n.Body),
	}
	c.walk(n.Body)
}
