// Package pool provides the bounded by-index worker pool behind every
// deterministic parallel fabric in this repository: GOPT fitness
// evaluation and experiment sweep cells. The contract that makes
// parallelism safe to put under bit-exact algorithms is the same
// everywhere:
//
//   - work is identified by index, handed out through an atomic
//     cursor, and every unit writes results only to its own slot;
//   - any reduction over those slots folds them in index order, so
//     the outcome is independent of which worker ran which index and
//     of GOMAXPROCS.
//
// The pool lives only for one call — a few microseconds of goroutine
// setup, irrelevant next to the work it parallelizes — so there is no
// lifecycle to manage and nothing to leak.
package pool

import (
	"sync"
	"sync/atomic"
)

// Run executes fn(i) for every i in [0,n) on at most workers
// goroutines. workers <= 1 (or n <= 1) runs inline on the caller's
// goroutine. fn must confine its writes to per-index state; under
// that discipline the result is identical for any pool width.
//
// The inline path (workers <= 1) is the hot contract: dispatch itself
// adds nothing to what fn allocates. The parallel path pays exactly W
// goroutine spawns per call — the suppressions below are that cost,
// audited.
//
//diverselint:hotpath inline dispatch must add zero allocations
func Run(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		//diverselint:ignore hotalloc,loopalloc W goroutine spawns and one worker closure per parallel call are the pool's entire dispatch cost; the workers=1 gate test pins the inline path to zero
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
