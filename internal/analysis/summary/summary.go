// Package summary computes per-function interprocedural summaries
// over the call graph: the lock-discipline layer the lockorder and
// lockbalance passes share, and the hot-error taint errdrop reads.
//
// For every function body (declared functions and function literals
// alike) the builder runs one forward dataflow pass over the cfg
// package's graph, tracking three must-facts per sync.Mutex/RWMutex:
//
//   - held:  the lock is held at this point on every path. Deferred
//     unlocks do NOT clear held — they run at exit, so the lock
//     protects everything after the defer statement.
//   - owed:  acquired here and not yet discharged by an unlock or a
//     defer-unlock — the function's net-acquire obligation.
//   - rel:   released without a matching local acquire — the shape of
//     an unlock helper.
//
// Net effects at the exit block become the function's summary, and
// the bottom-up pass over SCCs (the call graph emits callees first)
// lets call sites apply their callees' net effects transitively:
// "b.lock() acquires b.mu" is visible to every caller. A second,
// top-down pass intersects the lock sets held at every ordinary call
// site of a function to compute EntryHeld — the locks a function can
// rely on its callers holding. Goroutine spawns and function-value
// references contribute nothing (a new goroutine inherits no locks;
// a stored function value runs who-knows-where), and exported
// functions, main/init, and test functions are roots with an empty
// entry context.
//
// Lock identities are TYPE-based: "pkgpath.Type.field" names the mu
// field of every value of that struct type at once, and
// package-level locks are "pkgpath.var" — the classic coarsening that
// makes whole-program lock ordering tractable. Locks held in local
// variables are untracked.
//
// Alongside lock facts the walk records every lock-acquisition site
// with the locks already held (lockorder's raw material), goroutine
// spawn sites, and a HotError bit: the function returns an error that
// may originate from a netcast/wire/obs call, directly or through
// in-program callees — errdrop's "discarded three frames up" fuel.
//
// Everything is deterministic: nodes are visited in call-graph order,
// blocks and statements in CFG order, and all map-derived output is
// sorted before use.
package summary

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"diversecast/internal/analysis"
	"diversecast/internal/analysis/callgraph"
	"diversecast/internal/analysis/cfg"
	"diversecast/internal/analysis/escape"
)

// A LockID names a mutex by type identity: "pkgpath.Type.field" for a
// struct-field lock, "pkgpath.var" for a package-level lock.
type LockID string

// An AcquireSite is one lock acquisition (direct, or transitively
// through a callee's net-acquire effect) with the locks already held.
type AcquireSite struct {
	Lock LockID
	Pos  token.Pos
	// Via is the callee name when the acquisition happens inside a
	// call ("" for a direct mu.Lock()).
	Via string
	// Held is the lock set held locally just before the acquisition.
	Held map[LockID]bool
}

// A SpawnSite is one go statement.
type SpawnSite struct {
	Pos token.Pos
	// Callee is the spawned function's node, nil when the spawned
	// expression does not resolve to an in-program function.
	Callee *callgraph.Node
}

// A FuncSummary is the interprocedural digest of one function body.
type FuncSummary struct {
	Node *callgraph.Node

	// NetAcquire maps each lock acquired — and still owed — on every
	// path to exit to its acquisition position.
	NetAcquire map[LockID]token.Pos
	// NetRelease holds locks released on every path without a local
	// acquisition (unlock helpers).
	NetRelease map[LockID]bool
	// EntryHeld holds locks held by EVERY ordinary caller at every
	// call site (empty for roots: exported functions, main/init,
	// tests, goroutine targets, stored function values).
	EntryHeld map[LockID]bool
	// HotError: the function returns an error that may originate from
	// a netcast/wire/obs call, directly or through its callees.
	HotError bool

	Spawns   []SpawnSite
	Acquires []AcquireSite
}

// A Program is the whole-program summary set.
type Program struct {
	Graph *callgraph.Graph
	Fset  *token.FileSet
	// Funcs has one summary per call-graph node with a body.
	Funcs map[*callgraph.Node]*FuncSummary
	// Alloc is the whole-program allocation summary set (hot-path
	// roots, per-function sites, the transitive Allocates bit) the
	// hotalloc/loopalloc passes and the -hot report share.
	Alloc *escape.Program

	inProgram map[string]bool
	sites     map[*ast.CallExpr][]*callgraph.Edge
	callHeld  map[*callgraph.Edge]map[LockID]bool
}

// Of returns n's summary, nil for bodyless nodes.
func (p *Program) Of(n *callgraph.Node) *FuncSummary { return p.Funcs[n] }

// EdgesAt returns the call-graph edges leaving the given call
// expression (nil when the call does not resolve in-program).
func (p *Program) EdgesAt(call *ast.CallExpr) []*callgraph.Edge { return p.sites[call] }

// Build computes summaries for every function in the graph: one
// bottom-up pass over the SCC condensation for net effects and
// HotError, then one top-down pass for entry-held contexts.
func Build(fset *token.FileSet, pkgs []*analysis.Package, g *callgraph.Graph) *Program {
	p := &Program{
		Graph:     g,
		Fset:      fset,
		Funcs:     make(map[*callgraph.Node]*FuncSummary),
		inProgram: make(map[string]bool),
		sites:     make(map[*ast.CallExpr][]*callgraph.Edge),
		callHeld:  make(map[*callgraph.Edge]map[LockID]bool),
	}
	for _, pkg := range pkgs {
		p.inProgram[pkg.Path] = true
	}
	for _, n := range g.Nodes {
		for _, e := range n.Out {
			if e.Site != nil {
				p.sites[e.Site] = append(p.sites[e.Site], e)
			}
		}
	}

	// Bottom-up: SCCs come callees-first. Within a multi-node SCC
	// (mutual recursion) iterate to a fixpoint on the summary facts
	// that feed back into callers — net effects and HotError.
	for _, scc := range g.SCCs {
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
				if n.Body == nil {
					continue
				}
				s := p.compute(n)
				if !effectsEqual(p.Funcs[n], s) {
					changed = true
				}
				p.Funcs[n] = s
			}
			if !recursive || !changed || round >= 4 {
				break
			}
		}
	}

	// Top-down: SCCs backward visits callers before callees.
	for i := len(g.SCCs) - 1; i >= 0; i-- {
		for _, n := range g.SCCs[i] {
			s := p.Funcs[n]
			if s == nil {
				continue
			}
			s.EntryHeld = p.entryHeld(n)
		}
	}

	p.Alloc = escape.Build(fset, pkgs, g)
	return p
}

// effectsEqual compares the summary facts that flow into callers.
func effectsEqual(a, b *FuncSummary) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.HotError != b.HotError ||
		len(a.NetAcquire) != len(b.NetAcquire) ||
		len(a.NetRelease) != len(b.NetRelease) {
		return false
	}
	for l := range a.NetAcquire {
		if _, ok := b.NetAcquire[l]; !ok {
			return false
		}
	}
	for l := range a.NetRelease {
		if !b.NetRelease[l] {
			return false
		}
	}
	return true
}

// entryHeld intersects the lock sets of every ordinary (call/defer)
// in-edge. Any root condition — exported, main/init, test file, a go
// or ref in-edge, no in-edges at all — means the function can run
// with no locks, so the context is empty. Calls from _test.go files
// do not count: a test pokes at an unexported helper from one
// goroutine, and letting it empty the context would hide the order
// every production caller takes the locks in.
func (p *Program) entryHeld(n *callgraph.Node) map[LockID]bool {
	if n.Fn != nil {
		if n.Fn.Exported() || n.Fn.Name() == "main" || n.Fn.Name() == "init" {
			return nil
		}
	}
	if strings.HasSuffix(p.Fset.Position(n.Pos).Filename, "_test.go") {
		return nil
	}
	if len(n.In) == 0 {
		return nil
	}
	var entry map[LockID]bool
	for _, e := range n.In {
		if strings.HasSuffix(p.Fset.Position(e.Caller.Pos).Filename, "_test.go") {
			continue
		}
		if e.Kind == callgraph.Go || e.Kind == callgraph.Ref {
			return nil
		}
		contrib := make(map[LockID]bool)
		for l := range p.callHeld[e] {
			contrib[l] = true
		}
		if e.Caller.SCC != n.SCC {
			// The caller's own entry context extends the site's held
			// set; same-SCC edges use the site set alone (the caller's
			// context is still being computed).
			if cs := p.Funcs[e.Caller]; cs != nil {
				for l := range cs.EntryHeld {
					contrib[l] = true
				}
			}
		}
		if entry == nil {
			entry = contrib
			continue
		}
		for l := range entry {
			if !contrib[l] {
				delete(entry, l)
			}
		}
		if len(entry) == 0 {
			return nil
		}
	}
	return entry
}

// fact is the per-point lock state: see the package comment.
type fact struct {
	held map[LockID]bool
	owed map[LockID]token.Pos
	rel  map[LockID]bool
}

func newFact() fact {
	return fact{
		held: map[LockID]bool{},
		owed: map[LockID]token.Pos{},
		rel:  map[LockID]bool{},
	}
}

func (f fact) clone() fact {
	g := fact{
		held: make(map[LockID]bool, len(f.held)),
		owed: make(map[LockID]token.Pos, len(f.owed)),
		rel:  make(map[LockID]bool, len(f.rel)),
	}
	for k, v := range f.held {
		g.held[k] = v
	}
	for k, v := range f.owed {
		g.owed[k] = v
	}
	for k, v := range f.rel {
		g.rel[k] = v
	}
	return g
}

// joinFact intersects all three components (must-facts). Owed
// positions keep the smaller position so the solution is independent
// of visit order.
func joinFact(a, b fact) fact {
	out := newFact()
	for l := range a.held {
		if b.held[l] {
			out.held[l] = true
		}
	}
	for l, pa := range a.owed {
		if pb, ok := b.owed[l]; ok {
			if pb < pa {
				pa = pb
			}
			out.owed[l] = pa
		}
	}
	for l := range a.rel {
		if b.rel[l] {
			out.rel[l] = true
		}
	}
	return out
}

func factEqual(a, b fact) bool {
	if len(a.held) != len(b.held) || len(a.owed) != len(b.owed) || len(a.rel) != len(b.rel) {
		return false
	}
	for l := range a.held {
		if !b.held[l] {
			return false
		}
	}
	for l := range a.owed {
		if _, ok := b.owed[l]; !ok {
			return false
		}
	}
	for l := range a.rel {
		if !b.rel[l] {
			return false
		}
	}
	return true
}

// comp computes one function's summary.
type comp struct {
	p    *Program
	n    *callgraph.Node
	info *types.Info
}

func (p *Program) compute(n *callgraph.Node) *FuncSummary {
	s := &FuncSummary{
		Node:       n,
		NetAcquire: map[LockID]token.Pos{},
		NetRelease: map[LockID]bool{},
	}
	c := &comp{p: p, n: n, info: n.Pkg.TypesInfo}
	g := cfg.New(n.Body, cfg.Options{NoReturn: cfg.NoReturn(c.info)})
	facts := cfg.Forward(g, cfg.Lattice[fact]{
		Entry:    newFact(),
		Join:     joinFact,
		Transfer: func(node ast.Node, f fact) fact { return c.apply(node, f, nil) },
		Equal:    factEqual,
	})

	// Recording walk: re-fold the converged facts block by block,
	// this time capturing acquisitions, call-site held sets, and
	// spawns at each node.
	for _, blk := range g.Blocks {
		if !facts.Reached[blk] {
			continue
		}
		f := facts.In[blk]
		for _, node := range blk.Nodes {
			f = c.apply(node, f, s)
		}
	}

	if facts.Reached[g.Exit] {
		exit := facts.In[g.Exit]
		for l, pos := range exit.owed {
			s.NetAcquire[l] = pos
		}
		for l := range exit.rel {
			s.NetRelease[l] = true
		}
		// A deferred call runs at exit: its context is what was held
		// at registration AND still held at exit.
		for _, e := range n.Out {
			if e.Kind != callgraph.Defer {
				continue
			}
			held := p.callHeld[e]
			for l := range held {
				if !exit.held[l] {
					delete(held, l)
				}
			}
		}
	}

	s.HotError = c.hotError()
	return s
}

// apply is the transfer function. With s == nil it only advances the
// fact (fixpoint mode); with s it also records acquisition sites,
// call-site held sets, and spawns (recording mode).
func (c *comp) apply(node ast.Node, f fact, s *FuncSummary) fact {
	switch n := node.(type) {
	case *ast.DeferStmt:
		f = c.applyDefer(n, f, s)
		for _, a := range n.Call.Args {
			f = c.applyCalls(a, f, s)
		}
	case *ast.GoStmt:
		if s != nil {
			spawn := SpawnSite{Pos: n.Pos()}
			for _, e := range c.p.sites[n.Call] {
				if e.Kind == callgraph.Go {
					spawn.Callee = e.Callee
					break
				}
			}
			s.Spawns = append(s.Spawns, spawn)
		}
		for _, a := range n.Call.Args {
			f = c.applyCalls(a, f, s)
		}
	default:
		f = c.applyCalls(node, f, s)
	}
	return f
}

// applyDefer handles a defer statement: a deferred unlock (or a
// deferred call to a net-release helper) discharges the owed
// obligation without clearing held — the lock stays held until exit.
func (c *comp) applyDefer(n *ast.DeferStmt, f fact, s *FuncSummary) fact {
	if _, _, op := analysis.ClassifyLockCall(c.info, n.Call); op == analysis.LockRelease {
		if l := c.lockID(n.Call.Fun.(*ast.SelectorExpr).X); l != "" {
			g := f.clone()
			delete(g.owed, l)
			f = g
		}
		return f
	}
	edges := c.p.sites[n.Call]
	if s != nil {
		for _, e := range edges {
			if e.Kind == callgraph.Defer {
				c.p.callHeld[e] = cloneSet(f.held)
			}
		}
	}
	if callee := singleCallee(edges, callgraph.Defer); callee != nil {
		if cs := c.p.Funcs[callee]; cs != nil && len(cs.NetRelease) > 0 {
			g := f.clone()
			for _, l := range sortedLocks(cs.NetRelease) {
				delete(g.owed, l)
			}
			f = g
		}
	}
	return f
}

// applyCalls folds every call expression under root (nested function
// literals excluded — they are their own nodes) into the fact.
func (c *comp) applyCalls(root ast.Node, f fact, s *FuncSummary) fact {
	var calls []*ast.CallExpr
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			calls = append(calls, call)
		}
		return true
	})
	for _, call := range calls {
		f = c.applyCall(call, f, s)
	}
	return f
}

func (c *comp) applyCall(call *ast.CallExpr, f fact, s *FuncSummary) fact {
	if _, _, op := analysis.ClassifyLockCall(c.info, call); op != analysis.LockNone {
		l := c.lockID(call.Fun.(*ast.SelectorExpr).X)
		if l == "" {
			return f
		}
		if op == analysis.LockAcquire {
			if s != nil {
				s.Acquires = append(s.Acquires, AcquireSite{
					Lock: l, Pos: call.Pos(), Held: cloneSet(f.held),
				})
			}
			return acquire(f, l, call.Pos())
		}
		return release(f, l)
	}

	edges := c.p.sites[call]
	if s != nil {
		for _, e := range edges {
			if e.Kind == callgraph.Call {
				c.p.callHeld[e] = cloneSet(f.held)
			}
		}
	}
	// Apply the callee's net effects — only for an unambiguous
	// (single-callee) synchronous call; interface dispatch with
	// several candidates applies nothing.
	callee := singleCallee(edges, callgraph.Call)
	if callee == nil {
		return f
	}
	cs := c.p.Funcs[callee]
	if cs == nil {
		return f
	}
	for _, l := range sortedAcquires(cs.NetAcquire) {
		if s != nil {
			s.Acquires = append(s.Acquires, AcquireSite{
				Lock: l, Pos: call.Pos(), Via: callee.Name, Held: cloneSet(f.held),
			})
		}
		f = acquire(f, l, call.Pos())
	}
	for _, l := range sortedLocks(cs.NetRelease) {
		f = release(f, l)
	}
	return f
}

func singleCallee(edges []*callgraph.Edge, kind callgraph.EdgeKind) *callgraph.Node {
	var out *callgraph.Node
	for _, e := range edges {
		if e.Kind != kind {
			continue
		}
		if out != nil {
			return nil
		}
		out = e.Callee
	}
	return out
}

func acquire(f fact, l LockID, pos token.Pos) fact {
	g := f.clone()
	g.held[l] = true
	if g.rel[l] {
		delete(g.rel, l)
	} else if _, ok := g.owed[l]; !ok {
		g.owed[l] = pos
	}
	return g
}

func release(f fact, l LockID) fact {
	g := f.clone()
	delete(g.held, l)
	if _, ok := g.owed[l]; ok {
		delete(g.owed, l)
	} else {
		g.rel[l] = true
	}
	return g
}

func cloneSet(m map[LockID]bool) map[LockID]bool {
	out := make(map[LockID]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}

func sortedLocks(m map[LockID]bool) []LockID {
	out := make([]LockID, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedAcquires(m map[LockID]token.Pos) []LockID {
	out := make([]LockID, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// lockID resolves a mutex receiver expression to its type-based
// identity: a struct field ("pkg.Type.field"), a package-level var
// ("pkg.var"), or — for a promoted Lock() on a struct embedding a
// mutex — the embedded field. Locals return "".
func (c *comp) lockID(recv ast.Expr) LockID {
	recv = ast.Unparen(recv)
	switch e := recv.(type) {
	case *ast.SelectorExpr:
		if sel, ok := c.info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if id := c.fieldID(sel); id != "" {
				return id
			}
		}
		return ""
	case *ast.Ident:
		v, ok := c.info.Uses[e].(*types.Var)
		if !ok || v.Pkg() == nil {
			return ""
		}
		if v.Parent() == v.Pkg().Scope() {
			return LockID(v.Pkg().Path() + "." + v.Name())
		}
		// A promoted c.Lock(): the receiver is the struct itself and
		// the mutex is an embedded field.
		if id := embeddedMutex(v.Type()); id != "" {
			return id
		}
		return ""
	}
	return ""
}

// embeddedMutex names the embedded sync.Mutex/RWMutex field of t's
// struct type, "" when there is none.
func embeddedMutex(t types.Type) LockID {
	named, _ := deref(t).(*types.Named)
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	st, _ := named.Underlying().(*types.Struct)
	if st == nil {
		return ""
	}
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		if fld.Embedded() && isSyncType(fld.Type()) {
			return LockID(named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fld.Name())
		}
	}
	return ""
}

// fieldID names the mutex field a FieldVal selection reaches, by the
// selection's receiver type: "pkg.Type.field". It returns "" for
// receivers that are not in-program named structs.
func (c *comp) fieldID(sel *types.Selection) LockID {
	fld, ok := sel.Obj().(*types.Var)
	if !ok {
		return ""
	}
	named, _ := deref(sel.Recv()).(*types.Named)
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	if !c.p.inProgram[named.Obj().Pkg().Path()] {
		return ""
	}
	return LockID(named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + fld.Name())
}

func deref(t types.Type) types.Type {
	for {
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			return t
		}
		t = p.Elem()
	}
}

// isSyncType reports whether t is (a pointer to) a type of package
// sync — the embedded-mutex case of lockID.
func isSyncType(t types.Type) bool {
	named, _ := deref(t).(*types.Named)
	return named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync"
}
