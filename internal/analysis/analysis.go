// Package analysis is a small, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis vocabulary: an Analyzer inspects
// one type-checked package through a Pass and reports Diagnostics.
//
// The module cannot vendor x/tools (the repo builds offline with the
// standard library only), so this package provides just enough of the
// same shape — Analyzer, Pass, Reportf — for the diverselint suite
// under passes/ to read as ordinary go/analysis code, and for the
// suite to migrate to the real framework wholesale if x/tools ever
// becomes available. Loading and type-checking live in load.go; the
// driver loop and suppression directives in run.go and suppress.go.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one analysis pass: a named invariant check
// that runs over a single type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in findings and in
	// //diverselint:ignore directives. It must be a valid Go
	// identifier.
	Name string

	// Doc is the one-paragraph description printed by
	// `diverselint -list`: the invariant guarded and why it matters
	// to this codebase.
	Doc string

	// Run applies the analyzer to one package, reporting findings
	// through pass.Report. A non-nil error aborts the whole lint run
	// (it signals a broken analyzer, not a finding).
	Run func(pass *Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// A Pass presents one type-checked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Inter carries the whole-program interprocedural state shared by
	// every pass in a run — concretely a *summary.Program (declared
	// `any` here because summary imports this package). Per-function
	// passes ignore it. lockorder and the allocation passes
	// type-assert it and report nothing without it; lockbalance and
	// errdrop degrade to intraprocedural behavior.
	Inter any

	// Report delivers one diagnostic. The driver fills position
	// information and applies suppression directives.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding within the package being analyzed.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// IsFloat reports whether t's underlying type is float32 or float64.
func IsFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// IsMap reports whether t's underlying type is a map.
func IsMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// MethodFullName resolves the method referenced by a selector call to
// its *types.Func full name, e.g. "(*sync.Mutex).Lock". It returns ""
// when the selector does not resolve to a method (including when type
// information is incomplete). Promoted methods of embedded fields
// resolve to the embedded type's method, which is exactly what the
// lock- and wait-matching passes need.
func MethodFullName(info *types.Info, sel *ast.SelectorExpr) string {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	if fn.Type().(*types.Signature).Recv() == nil {
		return "" // package-level function, not a method
	}
	return fn.FullName()
}

// A LockOp classifies a call's effect on a mutex.
type LockOp int

const (
	LockNone    LockOp = iota // not a mutex operation
	LockAcquire               // Lock or RLock
	LockRelease               // Unlock or RUnlock
)

// lock method full names, resolved through go/types so promoted
// methods of embedded mutexes match too. Shared by the lockbalance
// pass and the lock summaries.
var (
	lockAcquireMethods = map[string]bool{
		"(*sync.Mutex).Lock":    true,
		"(*sync.RWMutex).Lock":  true,
		"(*sync.RWMutex).RLock": true,
	}
	lockReleaseMethods = map[string]bool{
		"(*sync.Mutex).Unlock":    true,
		"(*sync.RWMutex).Unlock":  true,
		"(*sync.RWMutex).RUnlock": true,
	}
)

// ClassifyLockCall classifies e as a sync.Mutex/RWMutex acquire or
// release. recv is the receiver expression's source text (the lock's
// identity for held-set tracking), method the method name
// (Lock/RLock/Unlock/RUnlock).
func ClassifyLockCall(info *types.Info, e ast.Expr) (recv, method string, op LockOp) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", "", LockNone
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", LockNone
	}
	full := MethodFullName(info, sel)
	switch {
	case lockAcquireMethods[full]:
		return types.ExprString(sel.X), sel.Sel.Name, LockAcquire
	case lockReleaseMethods[full]:
		return types.ExprString(sel.X), sel.Sel.Name, LockRelease
	}
	return "", "", LockNone
}
