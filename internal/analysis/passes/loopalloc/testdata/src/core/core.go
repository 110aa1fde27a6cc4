// Package core exercises loopalloc: allocation sites inside loops of
// a hot package, with nesting depth from the CFG — so goto loops
// count, hoisted makes don't, and provably preallocated appends are
// exempt. The package path matters: "core" is a hot segment.
package core

import "trace"

var tr *trace.Tracer

func perItem(items []int64) []int64 {
	out := make([]int64, 0, len(items)) // hoisted: depth 0, no finding
	for _, it := range items {
		buf := make([]byte, 8) // want `allocation in loop \(depth 1\): make\(\[\]byte\)`
		_ = buf
		out = append(out, it) // preallocated with cap above: exempt
	}
	return out
}

func collect(items []int64) []int64 {
	var out []int64
	for _, it := range items {
		out = append(out, it) // want `allocation in loop \(depth 1\): append to out may grow \(not provably preallocated\)`
	}
	return out
}

func nested(rows [][]int64) map[int64]int64 {
	idx := make(map[int64]int64, len(rows)) // depth 0: no finding
	for i, row := range rows {
		for _, v := range row {
			idx[v] = int64(i) // want `allocation in loop \(depth 2\): map write may grow buckets`
		}
	}
	return idx
}

func deferred(items []int64) {
	for range items {
		defer release() // want `allocation in loop \(depth 1\): defer in a loop allocates a record per iteration`
	}
}

func release() {}

// scan loops with goto: the CFG sees the back edge even though there
// is no for statement.
func scan(xs []int64) int64 {
	var sum int64
	i := 0
loop:
	if i < len(xs) {
		sum += xs[i]
		buf := make([]int64, 1) // want `allocation in loop \(depth 1\): make\(\[\]int64\)`
		_ = buf
		i++
		goto loop
	}
	return sum
}

// spawny and tally pin the three-clause for shape: statement-level
// sites (go, map write) must see the body block's depth even though
// only the loop condition carries the CFG depth marker.
func spawny(n int) {
	for i := 0; i < n; i++ {
		go release() // want `allocation in loop \(depth 1\): go statement spawns a goroutine`
	}
}

func tally(n int, m map[int]int) {
	for i := 0; i < n; i++ {
		m[i] = i // want `allocation in loop \(depth 1\): map write may grow buckets`
	}
}

// traced allocates per iteration only when tracing is on: gated,
// exempt.
func traced(items []int64) {
	for _, it := range items {
		if tr.Enabled() {
			lbl := make([]byte, 16)
			_ = lbl
			_ = it
		}
	}
}

// warmup is setup code; the audited coldpath directive exempts it
// from the per-iteration contract.
//
//diverselint:coldpath one-time table construction at startup
func warmup(n int) [][]byte {
	var tabs [][]byte
	for i := 0; i < n; i++ {
		tabs = append(tabs, make([]byte, i))
	}
	return tabs
}

// reuse appends into a caller-provided scratch reset to length zero —
// the repo's standard no-alloc idiom, exempt by form.
func reuse(dst, src []int64) []int64 {
	out := append(dst[:0], src[0]) // exempt: append to a slice expression
	for _, v := range src[1:] {
		out = append(out, v) // want `allocation in loop \(depth 1\): append to out may grow \(not provably preallocated\)`
	}
	return out
}

// Seeds loopalloc-1 and loopalloc-2 (internal/analysis/testdata/mutations):
// a subscriber's drain loop makes its claim scratch on every pass
// instead of once, and a per-group cost list grows by append from nil.
// Neither function is a hot-path root, so no runtime gate prices them.
func drain(claim func(dst [][]byte) [][]byte, batch int) {
	for {
		scratch := make([][]byte, 0, batch) // want `allocation in loop \(depth 1\): make\(\[\]\[\]byte\)`
		if len(claim(scratch)) == 0 {
			return
		}
	}
}

func groupCosts(costs []float64) []float64 {
	var out []float64
	for _, c := range costs {
		out = append(out, c) // want `allocation in loop \(depth 1\): append to out may grow \(not provably preallocated\)`
	}
	return out
}
