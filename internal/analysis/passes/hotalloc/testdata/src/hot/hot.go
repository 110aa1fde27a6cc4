// Package hot exercises the hotalloc contract: every ungated
// allocation site reachable from a //diverselint:hotpath root on the
// disabled-trace path is a finding, with its call chain back to the
// root.
package hot

import (
	"fmt"
	"io"

	"trace"
)

var tr *trace.Tracer

// Sweep is a hot root with one direct violation; the gated branch and
// the early-out-gated callee are exempt, the coldpath callee prunes.
//
//diverselint:hotpath per-cycle sweep kernel
func Sweep(xs, out []int64) int64 {
	var sum int64
	for i, x := range xs {
		out[i] = x
		sum += x
	}
	seen := make(map[int64]bool) // want `allocates on hot path from hot.Sweep: make\(map\[int64\]bool\)`
	_ = seen
	if tr.Enabled() {
		logSum(sum) // gated edge: logSum's fmt is not hot
	}
	note(sum)
	_ = scratch(len(xs))
	return sum + tail(xs)
}

// Drain shares tail with Sweep: the site in tail is claimed by the
// first root in declaration order, so Drain reports nothing extra.
//
//diverselint:hotpath drain loop
func Drain(xs []int64) int64 { return tail(xs) }

func tail(xs []int64) int64 {
	buf := make([]int64, len(xs)) // want `allocates on hot path from hot.Sweep \(via hot.tail\): make\(\[\]int64\)`
	copy(buf, xs)
	var sum int64
	for _, x := range buf {
		sum += x
	}
	return sum
}

// logSum is only reached through a gated edge — its allocation never
// runs with tracing off.
func logSum(sum int64) {
	fmt.Println("sum", sum)
}

// note is hot-reachable, but its allocation sits behind the early-out
// gate shape: with tracing off the function returns first.
func note(sum int64) {
	if tr == nil || !tr.Enabled() {
		return
	}
	msg := fmt.Sprintf("sum=%d", sum)
	_ = msg
}

// scratch is pruned from hot reachability by the audited directive.
//
//diverselint:coldpath one-time construction, not per-cycle
func scratch(n int) []int64 {
	return make([]int64, n)
}

// Apply reaches stamp through the closure it hands to each: Ref edges
// to function literals are followed (hot code defines hot closures).
//
//diverselint:hotpath fan-out dispatch
func Apply(xs []int64) {
	each(len(xs), func(i int) { // want `allocates on hot path from hot.Apply: func literal captures xs \(heap closure if it escapes\)`
		xs[i] = stamp(xs[i])
	})
}

func each(n int, f func(int)) {
	for i := 0; i < n; i++ {
		f(i)
	}
}

func stamp(x int64) int64 {
	s := fmt.Sprintf("%d", x) // want `allocates on hot path from hot.Apply \(via hot.Apply\$0 -> hot.stamp\): call to fmt.Sprintf allocates` `boxes on hot path from hot.Apply \(via hot.Apply\$0 -> hot.stamp\): int64 boxed into interface argument of fmt.Sprintf`
	return int64(len(s)) + x
}

type frame struct{ seq int64 }

// Publish pays for the spawn itself, but the spawned goroutine's body
// is not the hot path: Go edges are not followed.
//
//diverselint:hotpath publish fast path
func Publish(seq int64) *frame {
	go flush() // want `allocates on hot path from hot.Publish: go statement spawns a goroutine`
	return &frame{seq: seq} // want `allocates on hot path from hot.Publish: &frame\{\.\.\.\} escapes to the heap`
}

func flush() {
	b := make([]byte, 64)
	_ = b
}

// Write is seed hotalloc-1 (internal/analysis/testdata/mutations): the
// drain write formats its error into the connection outcome. Only the
// error path allocates, and the runtime gate writes to a conn that
// never fails, so no test sees it.
//
//diverselint:hotpath per-drain vectored write
func Write(w io.Writer, p []byte, outcome *string) bool {
	if _, err := w.Write(p); err != nil {
		*outcome = fmt.Sprintf("write_error: %v", err) // want `allocates on hot path from hot.Write: call to fmt.Sprintf allocates`
		return false
	}
	return true
}
