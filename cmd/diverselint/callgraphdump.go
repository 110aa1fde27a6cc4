package main

import (
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"sort"

	"diversecast/internal/analysis/summary"
)

// The -callgraph dump: the whole-program call graph with each node's
// interprocedural summary, as one deterministic JSON document. CI
// uploads it as an artifact next to the -json findings report, so a
// reviewer can answer "who can call this, and with which locks held?"
// without running the tool. Node order is the builder's deterministic
// ID order and every set is sorted, so two runs over the same tree
// emit byte-identical output.

type cgNode struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	Pkg  string `json:"pkg"`
	Pos  string `json:"pos"`
	SCC  int    `json:"scc"`

	NetAcquire []string `json:"net_acquire,omitempty"`
	NetRelease []string `json:"net_release,omitempty"`
	EntryHeld  []string `json:"entry_held,omitempty"`
	HotError   bool     `json:"hot_error,omitempty"`
	Spawns     int      `json:"spawns,omitempty"`

	// Allocation summary (internal/analysis/escape): the function's
	// own ungated site count, the transitive Allocates bit with the
	// callee it flows through, and its hotpath/coldpath directives.
	AllocSites int    `json:"alloc_sites,omitempty"`
	Allocates  bool   `json:"allocates,omitempty"`
	AllocVia   string `json:"alloc_via,omitempty"`
	Hotpath    bool   `json:"hotpath,omitempty"`
	Coldpath   bool   `json:"coldpath,omitempty"`
}

type cgEdge struct {
	From int    `json:"from"`
	To   int    `json:"to"`
	Kind string `json:"kind"`
	Pos  string `json:"pos"`
}

type cgReport struct {
	Nodes []cgNode `json:"nodes"`
	Edges []cgEdge `json:"edges"`
	SCCs  [][]int  `json:"sccs"`
}

func emitCallgraph(prog *summary.Program) int {
	rep := cgReport{Nodes: []cgNode{}, Edges: []cgEdge{}, SCCs: [][]int{}}
	for _, n := range prog.Graph.Nodes {
		jn := cgNode{
			ID:   n.ID,
			Name: n.Name,
			Pkg:  n.Pkg.Path,
			Pos:  posString(prog.Fset, n.Pos),
			SCC:  n.SCC,
		}
		if s := prog.Of(n); s != nil {
			jn.NetAcquire = lockStrings(mapKeysAcquire(s.NetAcquire))
			jn.NetRelease = lockStrings(mapKeysSet(s.NetRelease))
			jn.EntryHeld = lockStrings(mapKeysSet(s.EntryHeld))
			jn.HotError = s.HotError
			jn.Spawns = len(s.Spawns)
		}
		if fi := prog.Alloc.Of(n); fi != nil {
			jn.AllocSites = len(fi.Sites)
			jn.Allocates = fi.Allocates
			jn.AllocVia = fi.AllocVia
			jn.Hotpath = fi.HotRoot
			jn.Coldpath = fi.Cold
		}
		rep.Nodes = append(rep.Nodes, jn)
		for _, e := range n.Out {
			rep.Edges = append(rep.Edges, cgEdge{
				From: e.Caller.ID,
				To:   e.Callee.ID,
				Kind: e.Kind.String(),
				Pos:  posString(prog.Fset, e.Pos),
			})
		}
	}
	for _, scc := range prog.Graph.SCCs {
		ids := make([]int, len(scc))
		for i, n := range scc {
			ids[i] = n.ID
		}
		rep.SCCs = append(rep.SCCs, ids)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "diverselint:", err)
		return 2
	}
	return 0
}

func posString(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column)
}

func mapKeysAcquire(m map[summary.LockID]token.Pos) []summary.LockID {
	out := make([]summary.LockID, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	return out
}

func mapKeysSet(m map[summary.LockID]bool) []summary.LockID {
	out := make([]summary.LockID, 0, len(m))
	for l := range m {
		out = append(out, l)
	}
	return out
}

func lockStrings(locks []summary.LockID) []string {
	if len(locks) == 0 {
		return nil
	}
	out := make([]string, len(locks))
	for i, l := range locks {
		out[i] = string(l)
	}
	sort.Strings(out)
	return out
}
