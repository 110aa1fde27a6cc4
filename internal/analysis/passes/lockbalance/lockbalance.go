// Package lockbalance flags mutexes acquired but not released on
// every path to return or panic.
//
// The analysis is a held-set dataflow over the function's CFG. The
// bug class is the early-return leak —
//
//	mu.Lock()
//	if bad {
//		return err // mu still held: every later caller deadlocks
//	}
//	mu.Unlock()
//
// The analysis is a forward must-analysis: the fact is the set of
// locks held on EVERY path to a program point (join = intersection,
// so a lock held on only one arm of a branch is never reported — that
// conservatism is what keeps the pass at zero false positives on
// correlated-condition code). `defer mu.Unlock()` is modeled as
// balancing every exit downstream of its registration, which makes
// the canonical `mu.Lock(); defer mu.Unlock()` prologue exactly
// neutral.
//
// When whole-program summaries are available (Pass.Inter), the
// transfer function also applies callee lock effects: a call to a
// helper whose summary says "acquires T.mu and returns with it held"
// adds that lock to the caller's held set — so `c.lockIt(); return`
// is reported at the call site — and a helper that releases
// discharges the obligation, so the lock()/unlockHelper() split
// pattern stays quiet. Without summaries the pass degrades to its
// original intraprocedural behavior.
package lockbalance

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"diversecast/internal/analysis"
	"diversecast/internal/analysis/callgraph"
	"diversecast/internal/analysis/cfg"
	"diversecast/internal/analysis/summary"
)

// Analyzer flags locks still held at a return or panic exit.
var Analyzer = &analysis.Analyzer{
	Name: "lockbalance",
	Doc: "flags a sync.Mutex/RWMutex Lock or RLock not matched by an Unlock on every path to " +
		"return/panic: a leaked lock deadlocks every later critical section; unlock before the " +
		"early exit or use defer",
	Run: run,
}

// heldLock records one acquisition still outstanding: where it
// happened and via which method (Lock vs RLock drives the suggested
// release name). A non-empty via names the in-program callee whose
// summary acquired the lock; such holds are keyed by type-based
// summary.LockID rather than receiver text.
type heldLock struct {
	pos     token.Pos
	method  string
	via     string
	summary bool
}

// fact maps a lock key — receiver-expression text for direct
// acquisitions, summary.LockID for callee-acquired locks — to its
// outstanding acquisition. Must-analysis: a key is present only if
// the lock is held on every path reaching the point.
type fact map[string]heldLock

func run(pass *analysis.Pass) error {
	prog, _ := pass.Inter.(*summary.Program) // nil: intraprocedural only
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				// Each function (and each closure) balances its own
				// acquisitions; nested literals are visited by their
				// own Inspect step and excluded from this CFG.
				checkFunc(pass, prog, body)
			}
			return true
		})
	}
	return nil
}

func checkFunc(pass *analysis.Pass, prog *summary.Program, body *ast.BlockStmt) {
	g := cfg.New(body, cfg.Options{NoReturn: cfg.NoReturn(pass.TypesInfo)})
	facts := cfg.Forward(g, cfg.Lattice[fact]{
		Entry: fact{},
		Join:  intersect,
		Transfer: func(n ast.Node, f fact) fact {
			return transfer(pass, prog, n, f)
		},
		Equal: equal,
	})

	// Every reached predecessor of Exit is one way out of the
	// function; anything still in its must-held set leaks. Report at
	// the acquisition site, once per site.
	reported := make(map[token.Pos]bool)
	for _, b := range g.Blocks {
		if !facts.Reached[b] {
			continue
		}
		exits := false
		for _, s := range b.Succs {
			exits = exits || s == g.Exit
		}
		if !exits {
			continue
		}
		out := facts.Out(b)
		keys := make([]string, 0, len(out))
		for k := range out {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h := out[k]
			if reported[h.pos] {
				continue
			}
			reported[h.pos] = true
			if h.summary {
				pass.Reportf(h.pos,
					"%s() returns with %s held and it is not released on every path to %s: unlock after the call or make %s balance its own lock",
					h.via, displayLock(k), exitKind(b.Term), h.via)
				continue
			}
			pass.Reportf(h.pos,
				"%s.%s() is not released on every path to %s: unlock before the early exit or use defer %s.%s()",
				k, h.method, exitKind(b.Term), k, releaseName(h.method))
		}
	}
}

func exitKind(term ast.Node) string {
	switch term.(type) {
	case *ast.ReturnStmt:
		return "return"
	case *ast.CallExpr:
		return "panic/exit"
	default:
		return "return" // fall-off-the-end
	}
}

func releaseName(acquire string) string {
	if acquire == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

// displayLock shortens a type-based lock key
// ("pkg/path.Type.field") to "Type.field" for diagnostics;
// package-level locks ("pkg/path.var") and receiver-text keys pass
// through with just the import path trimmed.
func displayLock(k string) string {
	leaf := k[strings.LastIndex(k, "/")+1:]
	if i := strings.Index(leaf, "."); i >= 0 && strings.Count(leaf, ".") >= 2 {
		return leaf[i+1:]
	}
	return leaf
}

func transfer(pass *analysis.Pass, prog *summary.Program, n ast.Node, f fact) fact {
	switch n := n.(type) {
	case *ast.ExprStmt:
		recv, method, op := analysis.ClassifyLockCall(pass.TypesInfo, n.X)
		switch op {
		case analysis.LockAcquire:
			out := clone(f)
			out[recv] = heldLock{pos: n.X.(*ast.CallExpr).Pos(), method: method}
			return out
		case analysis.LockRelease:
			return discharge(f, recv)
		}
		if call, ok := n.X.(*ast.CallExpr); ok {
			return applyCalleeEffects(prog, call, f)
		}

	case *ast.DeferStmt:
		// A deferred release is guaranteed to run at function exit on
		// every path passing this registration: the balance
		// obligation is discharged here, path-sensitively. Covers
		// both `defer mu.Unlock()` and `defer func() { mu.Unlock() }()`.
		released := deferredReleases(pass, prog, n)
		if len(released) > 0 {
			out := f
			for _, recv := range released {
				out = discharge(out, recv)
			}
			return out
		}
	}
	return f
}

// applyCalleeEffects folds an in-program callee's net lock effects
// into the caller's held set: a net-acquiring helper leaves its locks
// held at the call site, a net-releasing helper discharges them.
// Multi-target sites (interface dispatch) apply nothing — the must-
// analysis cannot assume effects every implementation may not share.
func applyCalleeEffects(prog *summary.Program, call *ast.CallExpr, f fact) fact {
	if prog == nil {
		return f
	}
	var callee *callgraph.Node
	for _, e := range prog.EdgesAt(call) {
		if e.Kind != callgraph.Call {
			continue
		}
		if callee != nil {
			return f
		}
		callee = e.Callee
	}
	if callee == nil {
		return f
	}
	s := prog.Of(callee)
	if s == nil || (len(s.NetAcquire) == 0 && len(s.NetRelease) == 0) {
		return f
	}
	out := clone(f)
	acquired := make([]string, 0, len(s.NetAcquire))
	for lock := range s.NetAcquire {
		acquired = append(acquired, string(lock))
	}
	sort.Strings(acquired)
	for _, lock := range acquired {
		out[lock] = heldLock{pos: call.Pos(), method: "Lock", via: callee.Name, summary: true}
	}
	for lock := range s.NetRelease {
		out = discharge(out, string(lock))
	}
	return out
}

// discharge removes a released lock from the held set. The release
// and the acquisition may live in different namespaces — a direct
// `c.mu.Unlock()` is keyed by receiver text while a helper-acquired
// hold is keyed by type-based LockID (and vice versa) — so besides
// the exact key, any hold whose final field component matches the
// release's is dropped. Matching by field name alone can discharge a
// sibling lock of the same name, which errs exactly the way this
// must-analysis always errs: toward silence, never a false leak.
func discharge(f fact, key string) fact {
	field := key[strings.LastIndex(key, ".")+1:]
	out := f
	cloned := false
	for k := range f {
		if k != key && k[strings.LastIndex(k, ".")+1:] != field {
			continue
		}
		if !cloned {
			out, cloned = clone(f), true
		}
		delete(out, k)
	}
	return out
}

// deferredReleases collects the lock keys every unlock a defer
// statement guarantees: direct `defer mu.Unlock()`, unlocks inside a
// deferred closure, and — when summaries are available — a deferred
// helper whose net effect is a release (`defer c.cleanup()`).
func deferredReleases(pass *analysis.Pass, prog *summary.Program, d *ast.DeferStmt) []string {
	if recv, _, op := analysis.ClassifyLockCall(pass.TypesInfo, d.Call); op == analysis.LockRelease {
		return []string{recv}
	}
	lit, ok := d.Call.Fun.(*ast.FuncLit)
	if !ok {
		return summaryReleases(prog, d.Call)
	}
	var out []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a nested closure runs on its own schedule
		}
		if es, ok := n.(*ast.ExprStmt); ok {
			if recv, _, op := analysis.ClassifyLockCall(pass.TypesInfo, es.X); op == analysis.LockRelease {
				out = append(out, recv)
			} else if call, ok := es.X.(*ast.CallExpr); ok {
				out = append(out, summaryReleases(prog, call)...)
			}
		}
		return true
	})
	return out
}

// summaryReleases is the net-release set of a call's single
// in-program callee, as lock keys.
func summaryReleases(prog *summary.Program, call *ast.CallExpr) []string {
	if prog == nil {
		return nil
	}
	var callee *callgraph.Node
	for _, e := range prog.EdgesAt(call) {
		if e.Kind != callgraph.Call && e.Kind != callgraph.Defer {
			continue
		}
		if callee != nil {
			return nil
		}
		callee = e.Callee
	}
	if callee == nil {
		return nil
	}
	s := prog.Of(callee)
	if s == nil {
		return nil
	}
	out := make([]string, 0, len(s.NetRelease))
	for lock := range s.NetRelease {
		out = append(out, string(lock))
	}
	sort.Strings(out)
	return out
}

func clone(f fact) fact {
	out := make(fact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

func intersect(a, b fact) fact {
	out := fact{}
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}

func equal(a, b fact) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}
