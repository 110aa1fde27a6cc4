// Package detrand tracks determinism taint: values derived from
// wall-clock time, the global math/rand source, or map iteration
// order, flowing into places that must be reproducible.
//
// The repository's experiments are replication-exact: every figure is
// regenerated from a seed, and the golden tests against the paper's
// tables only mean something if a run is a pure function of that
// seed. The three nondeterminism sources that have actually bitten
// broadcast-scheduling codebases are
//
//   - time.Now/Since/Until — wall-clock deltas folded into costs,
//   - the global math/rand source (rand.Intn, rand.Float64, ... — the
//     seeded rand.New(rand.NewSource(seed)) idiom is exactly what this
//     pass wants instead, and is never flagged),
//   - map iteration order captured into values.
//
// The analysis is a forward may-taint dataflow over the function CFG
// (join = union): assignments propagate taint object-to-object, and
// three sinks report —
//
//  1. float accumulation (+=, -=, *=, /=, x = x + y) of a time- or
//     rand-tainted value (map-order float accumulation is floatdet's
//     finding and is not duplicated here),
//  2. comparisons inside a comparator (a FuncLit passed to
//     sort.Slice/SliceStable/SliceIsSorted/Search, a FuncLit of shape
//     func(a, b T) bool passed to any function — an ordering handed
//     over as a value, as priority-queue constructors take it — or a
//     method named Less) with a tainted operand — nondeterministic
//     tie-breaks reorder results run to run,
//  3. task closures (a FuncLit launched by `go` or handed to another
//     function as an argument) capturing a time- or rand-tainted
//     variable — worker pools replay such tasks in a different
//     interleaving every run.
package detrand

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"diversecast/internal/analysis"
	"diversecast/internal/analysis/cfg"
)

// Analyzer flags nondeterministic values reaching reproducibility-
// critical sinks.
var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "flags wall-clock (time.Now), global math/rand, and map-iteration-order values flowing " +
		"into float accumulation, sort comparators, or task closures: experiment output must be a " +
		"pure function of the seed, so thread a seeded *rand.Rand and keep timings out of costs",
	Run: run,
}

// kind is a bitset of taint origins.
type kind uint8

const (
	kindTime    kind = 1 << iota // time.Now / Since / Until
	kindRand                     // global math/rand source
	kindMapIter                  // map iteration order
)

func (k kind) describe() string {
	switch {
	case k&kindTime != 0:
		return "time.Now"
	case k&kindRand != 0:
		return "the global math/rand source"
	case k&kindMapIter != 0:
		return "map iteration order"
	}
	return "a nondeterministic source"
}

// fact maps objects to the taint that MAY have reached them.
type fact map[types.Object]kind

// litRole classifies how a function literal will be invoked.
type litRole int

const (
	rolePlain      litRole = iota // called inline / deferred
	roleTask                      // go stmt or callback argument
	roleComparator                // ordering argument: sort.* or func(a, b T) bool
)

type checker struct {
	pass *analysis.Pass
	done map[*ast.FuncLit]bool
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, done: map[*ast.FuncLit]bool{}}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue // tests may time and shuffle freely
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				c.analyze(fd.Body, fact{}, fd.Name.Name == "Less")
			}
		}
	}
	return nil
}

// analyze runs the taint dataflow over one function body. seed holds
// taints captured from the enclosing function (for closures).
func (c *checker) analyze(body *ast.BlockStmt, seed fact, comparator bool) {
	g := cfg.New(body, cfg.Options{NoReturn: cfg.NoReturn(c.pass.TypesInfo)})
	facts := cfg.Forward(g, cfg.Lattice[fact]{
		Entry: cloneFact(seed),
		Join:  union,
		Transfer: func(n ast.Node, f fact) fact {
			return c.transfer(n, f)
		},
		Equal: factEqual,
	})
	for _, b := range g.Blocks {
		if !facts.Reached[b] {
			continue
		}
		f := facts.In[b]
		for _, n := range b.Nodes {
			c.checkNode(n, f, comparator)
			f = c.transfer(n, f)
		}
	}
}

func (c *checker) checkNode(n ast.Node, f fact, comparator bool) {
	// A RangeStmt CFG node stands for the iteration header; only the
	// ranged expression is evaluated here.
	if r, ok := n.(*ast.RangeStmt); ok {
		n = r.X
	}
	if as, ok := n.(*ast.AssignStmt); ok {
		c.checkAccumulation(as, f)
	}
	if comparator {
		c.checkComparisons(n, f)
	}
	c.visitLits(n, f)
}

// checkAccumulation is sink 1: a float accumulator absorbing a time-
// or rand-tainted value.
func (c *checker) checkAccumulation(as *ast.AssignStmt, f fact) {
	lhs, rhs := accumulation(as)
	if lhs == nil {
		return
	}
	if t := c.pass.TypesInfo.TypeOf(lhs); t == nil || !analysis.IsFloat(t) {
		return
	}
	k := c.exprTaint(rhs, f) & (kindTime | kindRand)
	if k == 0 {
		return
	}
	c.pass.Reportf(as.Pos(),
		"%s accumulates a value derived from %s: the result differs run to run and breaks seed-exact replication; thread a seeded *rand.Rand or keep timings out of the cost path",
		types.ExprString(lhs), k.describe())
}

// accumulation recognizes x += y (and -= *= /=) and the spelled-out
// x = x + y, returning the accumulator and the accumulated expression.
func accumulation(as *ast.AssignStmt) (lhs, rhs ast.Expr) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, nil
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return as.Lhs[0], as.Rhs[0]
	case token.ASSIGN:
		be, ok := as.Rhs[0].(*ast.BinaryExpr)
		if !ok {
			return nil, nil
		}
		switch be.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
		default:
			return nil, nil
		}
		ls := types.ExprString(as.Lhs[0])
		if types.ExprString(be.X) == ls || (be.Op == token.ADD || be.Op == token.MUL) && types.ExprString(be.Y) == ls {
			return as.Lhs[0], as.Rhs[0]
		}
	}
	return nil, nil
}

// checkComparisons is sink 2: inside a comparator, any comparison
// with a tainted operand makes the sort order nondeterministic.
func (c *checker) checkComparisons(n ast.Node, f fact) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		be, ok := x.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		switch be.Op {
		case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		default:
			return true
		}
		if k := c.exprTaint(be.X, f) | c.exprTaint(be.Y, f); k != 0 {
			c.pass.Reportf(be.Pos(),
				"comparator result depends on %s: the sort order changes run to run, so downstream allocations stop being seed-reproducible; compare stable fields and break ties deterministically",
				k.describe())
			return false // one report per comparison tree
		}
		return true
	})
}

// visitLits discovers the function literals evaluated by this node,
// classifies how each will be invoked, applies sink 3, and recurses
// into their bodies with the captured taints as the entry fact.
func (c *checker) visitLits(n ast.Node, f fact) {
	roles := map[*ast.FuncLit]litRole{}
	mark := func(e ast.Expr, r litRole) {
		if lit, ok := e.(*ast.FuncLit); ok {
			if _, seen := roles[lit]; !seen {
				roles[lit] = r
			}
		}
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			mark(x.Call.Fun, roleTask)
		case *ast.DeferStmt:
			mark(x.Call.Fun, rolePlain) // runs in this goroutine, once
		case *ast.CallExpr:
			sorts := isSortOrdering(c.pass.TypesInfo, x.Fun)
			for _, a := range x.Args {
				r := roleTask
				if sorts || isComparator(c.pass.TypesInfo, a) {
					r = roleComparator
				}
				mark(a, r)
			}
		case *ast.FuncLit:
			c.handleLit(x, roles[x], f)
			return false // nested literals belong to x's own walk
		}
		return true
	})
}

func (c *checker) handleLit(lit *ast.FuncLit, r litRole, f fact) {
	if c.done[lit] {
		return
	}
	c.done[lit] = true
	if r == roleTask {
		if obj, k := c.capturedTaint(lit, f); obj != nil {
			c.pass.Reportf(lit.Pos(),
				"task closure captures %q, whose value derives from %s: pooled tasks replay in a different interleaving every run, so the output stops being seed-reproducible; resolve the value deterministically before handing the task off",
				obj.Name(), k.describe())
		}
	}
	c.analyze(lit.Body, f, r == roleComparator)
}

// capturedTaint finds a free variable of lit carrying time or rand
// taint at the literal's creation point.
func (c *checker) capturedTaint(lit *ast.FuncLit, f fact) (types.Object, kind) {
	var obj types.Object
	var k kind
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		if obj != nil {
			return false
		}
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		o := c.pass.TypesInfo.Uses[id]
		if o == nil || (o.Pos() >= lit.Pos() && o.Pos() < lit.End()) {
			return true // bound inside the literal, not captured
		}
		if t := f[o] & (kindTime | kindRand); t != 0 {
			obj, k = o, t
		}
		return obj == nil
	})
	return obj, k
}

// ---- taint transfer ----

func (c *checker) transfer(n ast.Node, f fact) fact {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return c.transferAssign(n, f)
	case *ast.DeclStmt:
		return c.transferDecl(n, f)
	case *ast.RangeStmt:
		return c.transferRange(n, f)
	}
	return f
}

func (c *checker) transferAssign(as *ast.AssignStmt, f fact) fact {
	w := writer{f: f}
	switch as.Tok {
	case token.DEFINE, token.ASSIGN:
		if len(as.Rhs) == len(as.Lhs) {
			// Taints are read from the pre-state before any write, so
			// `a, b = b, a` swaps correctly.
			ks := make([]kind, len(as.Rhs))
			for i, r := range as.Rhs {
				ks[i] = c.exprTaint(r, f)
			}
			for i, l := range as.Lhs {
				c.assignTo(&w, l, ks[i])
			}
		} else if len(as.Rhs) == 1 {
			k := c.exprTaint(as.Rhs[0], f)
			for _, l := range as.Lhs {
				c.assignTo(&w, l, k)
			}
		}
	default: // op-assign: the accumulator keeps its old taint too
		if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			k := c.exprTaint(as.Lhs[0], f) | c.exprTaint(as.Rhs[0], f)
			c.assignTo(&w, as.Lhs[0], k)
		}
	}
	return w.f
}

func (c *checker) transferDecl(ds *ast.DeclStmt, f fact) fact {
	gd, ok := ds.Decl.(*ast.GenDecl)
	if !ok {
		return f
	}
	w := writer{f: f}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			var k kind
			switch {
			case len(vs.Values) == len(vs.Names):
				k = c.exprTaint(vs.Values[i], f)
			case len(vs.Values) == 1:
				k = c.exprTaint(vs.Values[0], f)
			}
			w.set(c.identObj(name), k, true)
		}
	}
	return w.f
}

func (c *checker) transferRange(r *ast.RangeStmt, f fact) fact {
	k := c.exprTaint(r.X, f)
	if t := c.pass.TypesInfo.TypeOf(r.X); t != nil && analysis.IsMap(t) {
		k |= kindMapIter
	}
	w := writer{f: f}
	for _, e := range []ast.Expr{r.Key, r.Value} {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		w.set(c.identObj(id), k, true)
	}
	return w.f
}

// assignTo writes taint k through an lvalue: strongly for a plain
// variable, weakly (union) for a field/element of a tracked base.
func (c *checker) assignTo(w *writer, lhs ast.Expr, k kind) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		w.set(c.identObj(id), k, true)
		return
	}
	w.set(baseObject(c.pass.TypesInfo, lhs), k, false)
}

func (c *checker) identObj(id *ast.Ident) types.Object {
	if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Uses[id]
}

// baseObject resolves the variable at the root of an lvalue chain.
func baseObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			if obj := info.Uses[v]; obj != nil {
				return obj
			}
			return info.Defs[v]
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// writer is a copy-on-write view of a fact.
type writer struct {
	f      fact
	cloned bool
}

func (w *writer) set(obj types.Object, k kind, strong bool) {
	if obj == nil {
		return
	}
	old := w.f[obj]
	nv := k
	if !strong {
		nv = old | k
	}
	if nv == old {
		return
	}
	if !w.cloned {
		w.f = cloneFact(w.f)
		w.cloned = true
	}
	if nv == 0 {
		delete(w.f, obj)
	} else {
		w.f[obj] = nv
	}
}

// ---- taint of expressions ----

func (c *checker) exprTaint(e ast.Expr, f fact) kind {
	switch e := e.(type) {
	case *ast.Ident:
		return f[c.identObj(e)]
	case *ast.ParenExpr:
		return c.exprTaint(e.X, f)
	case *ast.SelectorExpr:
		k := c.exprTaint(e.X, f)
		if obj := c.pass.TypesInfo.Uses[e.Sel]; obj != nil {
			k |= f[obj]
		}
		return k
	case *ast.StarExpr:
		return c.exprTaint(e.X, f)
	case *ast.UnaryExpr:
		if e.Op == token.ARROW {
			return 0 // channel values are the sender's concern
		}
		return c.exprTaint(e.X, f)
	case *ast.BinaryExpr:
		return c.exprTaint(e.X, f) | c.exprTaint(e.Y, f)
	case *ast.IndexExpr:
		return c.exprTaint(e.X, f)
	case *ast.SliceExpr:
		return c.exprTaint(e.X, f)
	case *ast.TypeAssertExpr:
		return c.exprTaint(e.X, f)
	case *ast.KeyValueExpr:
		return c.exprTaint(e.Value, f)
	case *ast.CompositeLit:
		var k kind
		for _, el := range e.Elts {
			k |= c.exprTaint(el, f)
		}
		return k
	case *ast.CallExpr:
		return c.callTaint(e, f)
	}
	return 0
}

func (c *checker) callTaint(call *ast.CallExpr, f fact) kind {
	// Conversions pass taint through: float64(time.Now().UnixNano()).
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return c.exprTaint(call.Args[0], f)
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := c.pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return sourceKind(fn)
		}
	case *ast.SelectorExpr:
		if fn, ok := c.pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			if k := sourceKind(fn); k != 0 {
				return k
			}
			if fn.Signature().Recv() != nil {
				// A method's result inherits its receiver's taint:
				// start.Add(d), now.UnixNano(), ...
				return c.exprTaint(fun.X, f)
			}
		}
	}
	return 0
}

// sourceKind classifies a function as a nondeterminism source.
// rand.New/NewSource/NewZipf are explicitly NOT sources: the seeded
// *rand.Rand idiom is the fix this pass asks for.
func sourceKind(fn *types.Func) kind {
	pkg := fn.Pkg()
	if pkg == nil {
		return 0
	}
	switch pkg.Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return kindTime
		}
	case "math/rand", "math/rand/v2":
		if fn.Signature().Recv() == nil && !strings.HasPrefix(fn.Name(), "New") {
			return kindRand
		}
	}
	return 0
}

// isSortOrdering reports whether the callee is a sort function whose
// closure argument defines an ordering.
func isSortOrdering(info *types.Info, fun ast.Expr) bool {
	sel, ok := ast.Unparen(fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sort" {
		return false
	}
	switch fn.Name() {
	case "Slice", "SliceStable", "SliceIsSorted", "Search":
		return true
	}
	return false
}

// isComparator reports whether e has the type of an ordering passed as
// a value, func(a, b T) bool: a callee taking one, such as
// pqueue.New, sorts or heaps by it, whatever its name.
func isComparator(info *types.Info, e ast.Expr) bool {
	sig, ok := info.TypeOf(e).(*types.Signature)
	if !ok || sig.Params().Len() != 2 || sig.Results().Len() != 1 {
		return false
	}
	res, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
	return ok && res.Kind() == types.Bool &&
		types.Identical(sig.Params().At(0).Type(), sig.Params().At(1).Type())
}

// ---- lattice plumbing ----

func union(a, b fact) fact {
	out := cloneFact(a)
	for k, v := range b {
		out[k] |= v
	}
	return out
}

func factEqual(a, b fact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func cloneFact(f fact) fact {
	out := make(fact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}
