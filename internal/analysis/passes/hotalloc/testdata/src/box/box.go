// Package box exercises hotalloc's boxing sites: concrete
// non-pointer-shaped values escaping into interface{}/error parameters
// on hot paths. Constants, pointers, interface pass-throughs, spread
// variadics, and gated calls are all exempt.
package box

import (
	"sync/atomic"

	"trace"
)

var tr *trace.Tracer

type meter struct{ n int }

func (m *meter) observe(v any) { m.n++ }

func event(msg string, attrs ...any) {}

func fail(err error) {}

type code int

func (c code) Error() string { return "code" }

var m meter

// Record boxes directly and through a helper.
//
//diverselint:hotpath observe fast path
func Record(v int64, active bool) {
	m.observe(v)            // want `boxes on hot path from box.Record: int64 boxed into interface argument of m.observe`
	event("cycle", v, active) // want `int64 boxed into interface argument of event` `bool boxed into interface argument of event`
	relay(v)
}

func relay(v int64) {
	m.observe(v) // want `boxes on hot path from box.Record \(via box.relay\): int64 boxed into interface argument of m.observe`
}

// Check boxes a concrete error implementation into the error
// parameter — the errors-as-values spelling of the same cost.
//
//diverselint:hotpath error fast path
func Check(c code) {
	fail(c) // want `box.code boxed into interface argument of fail`
}

// Clean shows every exemption: constants have static interface data,
// pointer-shaped values ride in the data word, an interface argument
// is already boxed, a spread variadic passes the slice through, and
// the gated call only runs with tracing on.
//
//diverselint:hotpath exemption inventory
func Clean(p *meter, v any, attrs []any, x int64) {
	m.observe(42)  // constant: exempt
	m.observe(p)   // pointer-shaped: exempt
	m.observe(v)   // already an interface: exempt
	event("spread", attrs...) // slice passes through: exempt
	if tr.Enabled() {
		m.observe(x) // gated: exempt
	}
}

// Drain is the seeded netcast bug the runtime gate cannot see: the
// batch byte count boxes into atomic.Value.Store's any parameter on
// every drain, but Go boxes ints below 256 without allocating, so an
// AllocsPerRun gate fed small frames measures zero.
//
//diverselint:hotpath per-drain vectored write
func Drain(last *atomic.Value, frames [][]byte) {
	n := 0
	for _, f := range frames {
		n += len(f)
	}
	last.Store(n) // want `boxes on hot path from box.Drain: int boxed into interface argument of last.Store`
}
