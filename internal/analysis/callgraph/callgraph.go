// Package callgraph builds a whole-program call graph over the
// packages the diverselint loader produced — the interprocedural
// skeleton under the lock and hot-error summaries and the escape
// (allocation) layer.
//
// Every function declaration and every function literal becomes a
// Node; call sites become Edges tagged with how control transfers:
//
//   - Call: an ordinary synchronous call. The callee runs on the
//     caller's goroutine with the caller's lock state.
//   - Go: the call after a go keyword. The callee runs concurrently,
//     so it inherits NOTHING — no held locks, no deferred cleanups.
//   - Defer: a deferred call. It runs at function exit; passes that
//     track lock state treat its context conservatively.
//   - Ref: a function value taken without being called here (a method
//     value, a function passed as an argument). The graph cannot see
//     when — or whether — it runs, so summary propagation treats the
//     target like a root.
//
// Resolution is purely static, via go/types: direct calls and
// concrete-receiver method calls resolve to exactly one node;
// interface method calls use bounded method-set dispatch — one edge
// per named type in the analyzed program whose method set satisfies
// the interface (the bound is the program itself: types outside the
// analyzed packages do not exist for dispatch purposes). Calls
// through plain function-typed variables are not resolved; the Ref
// edge at the point the value was taken keeps the target reachable.
//
// Construction order is deterministic (packages in the order given,
// files and declarations in source order), and so are the node IDs,
// the edge lists, and the Tarjan SCC condensation built from them —
// a requirement inherited from the repo-wide byte-identical-output
// rule for analysis reports.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"diversecast/internal/analysis"
)

// An EdgeKind says how control reaches the callee.
type EdgeKind int

const (
	// Call is a plain synchronous call expression.
	Call EdgeKind = iota
	// Go is a call spawned on a new goroutine (go f()).
	Go
	// Defer is a deferred call (defer f()).
	Defer
	// Ref is a function value taken without an immediate call: a
	// method value, or a function/literal passed as an argument.
	Ref
)

func (k EdgeKind) String() string {
	switch k {
	case Call:
		return "call"
	case Go:
		return "go"
	case Defer:
		return "defer"
	case Ref:
		return "ref"
	}
	return fmt.Sprintf("EdgeKind(%d)", int(k))
}

// A Node is one function body in the program: a declared function or
// method, or a function literal.
type Node struct {
	// ID is the node's dense, deterministic index into Graph.Nodes.
	ID int
	// Name is a stable human-readable identity: the types.Func full
	// name for declarations, or "<enclosing>$<n>" for the n-th
	// function literal (source order) inside <enclosing>.
	Name string
	// Fn is the declared function object; nil for function literals.
	Fn *types.Func
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Body is the function body (nil for bodyless declarations, e.g.
	// assembly stubs — such nodes exist but carry no edges).
	Body *ast.BlockStmt
	// Pkg is the package the body lives in (its TypesInfo covers the
	// body's expressions).
	Pkg *analysis.Package
	// Pos is the function's position (the func keyword).
	Pos token.Pos

	// Out and In are the edge lists, in deterministic order.
	Out, In []*Edge

	// SCC is the index of the node's strongly connected component in
	// Graph.SCCs after condensation.
	SCC int
}

// An Edge is one resolved call/spawn/defer/reference site.
type Edge struct {
	Caller, Callee *Node
	Kind           EdgeKind
	// Pos is the site's position in the caller.
	Pos token.Pos
	// Site is the call expression, nil for Ref edges.
	Site *ast.CallExpr
}

// A Graph is the whole-program call graph with its SCC condensation.
type Graph struct {
	Nodes []*Node

	// SCCs lists the strongly connected components in reverse
	// topological order of the condensation: every edge leaving a
	// component points to a component at a SMALLER index, so iterating
	// SCCs forward visits callees before callers (the bottom-up order
	// summaries want) and backward visits callers first (the top-down
	// order entry-context propagation wants).
	SCCs [][]*Node

	byFn  map[*types.Func]*Node
	byLit map[*ast.FuncLit]*Node

	// named is every non-alias named type defined in the analyzed
	// packages, in deterministic order — the dispatch universe for
	// interface method calls.
	named []*types.Named
}

// Signature returns the node's function signature (nil when type
// information is incomplete).
func (n *Node) Signature() *types.Signature {
	if n.Fn != nil {
		sig, _ := n.Fn.Type().(*types.Signature)
		return sig
	}
	if n.Lit != nil && n.Pkg != nil && n.Pkg.TypesInfo != nil {
		sig, _ := n.Pkg.TypesInfo.TypeOf(n.Lit).(*types.Signature)
		return sig
	}
	return nil
}

// NodeFor returns the node of a declared function or method, nil when
// fn is not part of the analyzed program.
func (g *Graph) NodeFor(fn *types.Func) *Node { return g.byFn[fn] }

// NodeForLit returns the node of a function literal, nil when lit is
// not part of the analyzed program.
func (g *Graph) NodeForLit(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// Build constructs the call graph of the given packages. The package
// order fixes node IDs, so callers must pass a deterministic slice
// (the loader's sorted import-path order).
func Build(pkgs []*analysis.Package) *Graph {
	g := &Graph{
		byFn:  make(map[*types.Func]*Node),
		byLit: make(map[*ast.FuncLit]*Node),
	}
	b := &builder{g: g}
	for _, pkg := range pkgs {
		b.collectNodes(pkg)
		b.collectNamed(pkg)
	}
	for _, n := range g.Nodes {
		b.collectEdges(n)
	}
	g.condense()
	return g
}

type builder struct {
	g *Graph
}

// collectNodes creates a node per function declaration and per
// function literal, in source order. A literal's node is named after
// its innermost enclosing declared function.
func (b *builder) collectNodes(pkg *analysis.Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			n := &Node{
				ID:   len(b.g.Nodes),
				Name: fn.FullName(),
				Fn:   fn,
				Body: fd.Body,
				Pkg:  pkg,
				Pos:  fd.Pos(),
			}
			b.g.Nodes = append(b.g.Nodes, n)
			b.g.byFn[fn] = n
			if fd.Body != nil {
				b.collectLits(pkg, n.Name, fd.Body)
			}
		}
	}
}

// collectLits creates nodes for the function literals inside body
// (excluding those nested in deeper literals, which recurse with
// their own prefix).
func (b *builder) collectLits(pkg *analysis.Package, prefix string, body *ast.BlockStmt) {
	i := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		node := &Node{
			ID:   len(b.g.Nodes),
			Name: fmt.Sprintf("%s$%d", prefix, i),
			Lit:  lit,
			Body: lit.Body,
			Pkg:  pkg,
			Pos:  lit.Pos(),
		}
		i++
		b.g.Nodes = append(b.g.Nodes, node)
		b.g.byLit[lit] = node
		b.collectLits(pkg, node.Name, lit.Body)
		return false
	}
	ast.Inspect(body, walk)
}

// collectNamed gathers the package's named (non-alias) type
// definitions — the interface-dispatch universe.
func (b *builder) collectNamed(pkg *analysis.Package) {
	if pkg.Types == nil {
		return
	}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() { // Names() is sorted
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			b.g.named = append(b.g.named, named)
		}
	}
}

// collectEdges resolves every call, go, defer, and function-value
// reference in n's body (nested literals excluded — they have their
// own nodes).
func (b *builder) collectEdges(n *Node) {
	if n.Body == nil {
		return
	}
	info := n.Pkg.TypesInfo

	// handled marks expressions already consumed as part of a call
	// site (the Fun and its Sel ident), so the value walk below does
	// not double-count them as references.
	handled := make(map[ast.Expr]bool)

	var walk func(ast.Node) bool
	walk = func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			// The literal's body belongs to its own node; taking the
			// literal here (without the CallExpr case having claimed it
			// as an immediately-invoked Fun) is a reference to it.
			if !handled[node] {
				if callee := b.g.byLit[node]; callee != nil {
					b.addEdge(n, callee, Ref, node.Pos(), nil)
				}
			}
			return false
		case *ast.GoStmt:
			b.callEdges(n, node.Call, Go, handled)
			// Arguments of the spawned call are evaluated here and may
			// take references.
			for _, arg := range node.Call.Args {
				ast.Inspect(arg, walk)
			}
			return false
		case *ast.DeferStmt:
			b.callEdges(n, node.Call, Defer, handled)
			for _, arg := range node.Call.Args {
				ast.Inspect(arg, walk)
			}
			return false
		case *ast.CallExpr:
			b.callEdges(n, node, Call, handled)
			return true
		case *ast.SelectorExpr:
			// A method value or method expression (x.M / T.M taken,
			// not called) keeps M reachable.
			if !handled[node] {
				if sel, ok := info.Selections[node]; ok &&
					(sel.Kind() == types.MethodVal || sel.Kind() == types.MethodExpr) {
					handled[node.Sel] = true
					b.refEdges(n, node, sel)
				}
			}
			return true
		case *ast.Ident:
			if handled[node] {
				return true
			}
			if fn, ok := info.Uses[node].(*types.Func); ok {
				if callee := b.g.byFn[fn]; callee != nil {
					b.addEdge(n, callee, Ref, node.Pos(), nil)
				}
			}
			return true
		}
		return true
	}
	ast.Inspect(n.Body, walk)
}

// callEdges resolves one call expression to its callee node(s) and
// records edges of the given kind. The call's Fun (and its selector
// ident) is marked handled so the value walk does not double-count it
// as a reference.
func (b *builder) callEdges(n *Node, call *ast.CallExpr, kind EdgeKind, handled map[ast.Expr]bool) {
	info := n.Pkg.TypesInfo
	fun := ast.Unparen(call.Fun)
	handled[fun] = true

	switch fun := fun.(type) {
	case *ast.Ident:
		// Direct call of a declared function (or a conversion/builtin,
		// which Uses resolves to a non-Func and we skip).
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			if callee := b.g.byFn[fn]; callee != nil {
				b.addEdge(n, callee, kind, call.Pos(), call)
			}
		}
	case *ast.SelectorExpr:
		handled[fun.Sel] = true
		sel, ok := info.Selections[fun]
		if !ok {
			// Package-qualified call (pkg.F): resolves through Uses.
			if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
				if callee := b.g.byFn[fn]; callee != nil {
					b.addEdge(n, callee, kind, call.Pos(), call)
				}
			}
			return
		}
		if sel.Kind() != types.MethodVal {
			return
		}
		fn, ok := sel.Obj().(*types.Func)
		if !ok {
			return
		}
		if types.IsInterface(sel.Recv()) {
			// Bounded dispatch: one edge per program type implementing
			// the receiver interface with this method.
			for _, impl := range b.dispatch(sel.Recv(), fn) {
				b.addEdge(n, impl, kind, call.Pos(), call)
			}
			return
		}
		if callee := b.g.byFn[fn]; callee != nil {
			b.addEdge(n, callee, kind, call.Pos(), call)
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: func(){...}().
		if callee := b.g.byLit[fun]; callee != nil {
			b.addEdge(n, callee, kind, call.Pos(), call)
		}
	}
}

// refEdges records Ref edges for a method value x.M: the concrete
// method, or every dispatch candidate when x is an interface.
func (b *builder) refEdges(n *Node, selExpr *ast.SelectorExpr, sel *types.Selection) {
	fn, ok := sel.Obj().(*types.Func)
	if !ok {
		return
	}
	if sel.Kind() == types.MethodVal && types.IsInterface(sel.Recv()) {
		for _, impl := range b.dispatch(sel.Recv(), fn) {
			b.addEdge(n, impl, Ref, selExpr.Pos(), nil)
		}
		return
	}
	if callee := b.g.byFn[fn]; callee != nil {
		b.addEdge(n, callee, Ref, selExpr.Pos(), nil)
	}
}

// dispatch returns the nodes of every method in the analyzed program
// that an interface method call could reach: for each named type T in
// the program whose T or *T implements the receiver interface, the
// method with the call's name.
func (b *builder) dispatch(recv types.Type, ifaceFn *types.Func) []*Node {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*Node
	for _, named := range b.g.named {
		if types.IsInterface(named.Underlying()) {
			continue
		}
		var impl types.Type
		switch {
		case types.Implements(named, iface):
			impl = named
		case types.Implements(types.NewPointer(named), iface):
			impl = types.NewPointer(named)
		default:
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(impl, true, ifaceFn.Pkg(), ifaceFn.Name())
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if callee := b.g.byFn[m]; callee != nil {
			out = append(out, callee)
		}
	}
	return out
}

func (b *builder) addEdge(caller, callee *Node, kind EdgeKind, pos token.Pos, site *ast.CallExpr) {
	e := &Edge{Caller: caller, Callee: callee, Kind: kind, Pos: pos, Site: site}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

// condense runs Tarjan's algorithm over the deterministic node/edge
// order; components are emitted callees-first (reverse topological
// order of the condensation).
func (g *Graph) condense() {
	const unvisited = -1
	index := make([]int, len(g.Nodes))
	low := make([]int, len(g.Nodes))
	onStack := make([]bool, len(g.Nodes))
	for i := range index {
		index[i] = unvisited
	}
	var stack []*Node
	next := 0

	var strongconnect func(n *Node)
	strongconnect = func(n *Node) {
		index[n.ID] = next
		low[n.ID] = next
		next++
		stack = append(stack, n)
		onStack[n.ID] = true
		for _, e := range n.Out {
			m := e.Callee
			if index[m.ID] == unvisited {
				strongconnect(m)
				if low[m.ID] < low[n.ID] {
					low[n.ID] = low[m.ID]
				}
			} else if onStack[m.ID] && index[m.ID] < low[n.ID] {
				low[n.ID] = index[m.ID]
			}
		}
		if low[n.ID] == index[n.ID] {
			var comp []*Node
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m.ID] = false
				m.SCC = len(g.SCCs)
				comp = append(comp, m)
				if m == n {
					break
				}
			}
			g.SCCs = append(g.SCCs, comp)
		}
	}
	for _, n := range g.Nodes {
		if index[n.ID] == unvisited {
			strongconnect(n)
		}
	}
}
