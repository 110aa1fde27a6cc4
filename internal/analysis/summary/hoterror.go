package summary

import (
	"go/ast"
	"go/types"
	"strings"

	"diversecast/internal/analysis/callgraph"
)

// hotPkgs are the import-path leaves whose error returns must not be
// dropped — shared vocabulary with the errdrop pass.
var hotPkgs = map[string]bool{
	"netcast": true,
	"wire":    true,
	"obs":     true,
}

// hotError reports whether the function returns an error that may
// originate from a hot-package call — directly (`return wire.X()`),
// via a local (`err := wire.X(); ...; return err`), or transitively
// through an in-program callee whose own summary is hot.
func (c *comp) hotError() bool {
	if !returnsError(c.n) {
		return false
	}
	// Pass 1: objects assigned from hot calls, flow-insensitively.
	hot := make(map[types.Object]bool)
	c.walkOwn(func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return
		}
		tainted := false
		for _, rhs := range as.Rhs {
			if c.anyHotCall(rhs) {
				tainted = true
				break
			}
		}
		if !tainted {
			return
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := c.info.Defs[id]; obj != nil {
					hot[obj] = true
				} else if obj := c.info.Uses[id]; obj != nil {
					hot[obj] = true
				}
			}
		}
	})
	// Pass 2: does any return carry the taint?
	found := false
	c.walkOwn(func(n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || found {
			return
		}
		if len(ret.Results) == 0 {
			// Naked return: named results carry whatever was
			// assigned to them.
			for obj := range hot {
				if v, ok := obj.(*types.Var); ok && isNamedResult(c.n, v) {
					found = true
					return
				}
			}
			return
		}
		for _, res := range ret.Results {
			if c.anyHotCall(res) {
				found = true
				return
			}
			if id, ok := ast.Unparen(res).(*ast.Ident); ok && hot[c.info.Uses[id]] {
				found = true
				return
			}
		}
	})
	return found
}

// walkOwn visits the function body excluding nested literals.
func (c *comp) walkOwn(visit func(ast.Node)) {
	ast.Inspect(c.n.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// anyHotCall reports whether e contains a call whose error result
// originates in a hot package or a hot-summary callee.
func (c *comp) anyHotCall(e ast.Expr) bool {
	hot := false
	ast.Inspect(e, func(n ast.Node) bool {
		if hot {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if c.isHotCall(call) {
			hot = true
			return false
		}
		return true
	})
	return hot
}

func (c *comp) isHotCall(call *ast.CallExpr) bool {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = c.info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = c.info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	if hotPkgs[path[strings.LastIndex(path, "/")+1:]] && callReturnsError(c.info, call) {
		return true
	}
	// Transitive: a single in-program callee whose summary is hot.
	if callee := singleCallee(c.p.sites[call], callgraph.Call); callee != nil {
		if cs := c.p.Funcs[callee]; cs != nil && cs.HotError {
			return true
		}
	}
	return false
}

var errorType = types.Universe.Lookup("error").Type()

func callReturnsError(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call)
	if t == nil {
		return false
	}
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if types.Identical(tuple.At(i).Type(), errorType) {
				return true
			}
		}
		return false
	}
	return types.Identical(t, errorType)
}

// returnsError reports whether the node's signature includes an error
// result.
func returnsError(n *callgraph.Node) bool {
	sig := n.Signature()
	if sig == nil {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errorType) {
			return true
		}
	}
	return false
}

// isNamedResult reports whether v is one of the function's named
// results.
func isNamedResult(n *callgraph.Node, v *types.Var) bool {
	sig := n.Signature()
	if sig == nil {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if res.At(i) == v {
			return true
		}
	}
	return false
}
