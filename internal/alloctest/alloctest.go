// Package alloctest binds diverselint's static hot-path contracts to
// runtime truth. The hotalloc/loopalloc passes prove that no
// allocation site is *reachable* from a //diverselint:hotpath root;
// the gate tests built on this package prove the compiler agreed — no
// missed escape, no interface boxing the type checker saw but the
// summary didn't, no stdlib call that allocates behind a clean
// signature. Every annotated root is expected to have exactly one
// MustZeroAllocs gate somewhere in its package's tests.
package alloctest

import (
	"runtime/debug"
	"sync"
	"testing"
)

// RaceEnabled reports whether this binary was built with the race
// detector. Detection reads the build settings baked into the binary,
// so the gate tests need no build tags and `go test` and
// `go test -race` compile the same files.
func RaceEnabled() bool { return raceEnabled() }

var raceEnabled = sync.OnceValue(func() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
})

// MustZeroAllocs fails t unless f performs zero heap allocations per
// call. warmup extra calls run first so one-time lazy state (pooled
// tables, a lazily constructed timer, map growth to steady state)
// settles outside the measurement window. Under the race detector the
// measurement is skipped, not weakened: race instrumentation inserts
// allocations the production build does not have, so a nonzero count
// there proves nothing about the contract.
func MustZeroAllocs(t *testing.T, name string, warmup int, f func()) {
	t.Helper()
	if RaceEnabled() {
		t.Skipf("%s: AllocsPerRun is not meaningful under -race", name)
	}
	for i := 0; i < warmup; i++ {
		f()
	}
	if n := testing.AllocsPerRun(100, f); n != 0 {
		t.Errorf("%s: %v allocation(s) per run, want 0", name, n)
	}
}
