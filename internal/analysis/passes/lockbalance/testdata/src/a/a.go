// Corpus for lockbalance: locks must be released on every path to
// return/panic.
package a

import "sync"

type store struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	data map[string]int
}

// Flagged: the early-return leak — the error path returns with mu
// still held.
func (s *store) putLeaky(k string, v int, bad bool) error {
	s.mu.Lock() // want `s\.mu\.Lock\(\) is not released on every path to return`
	if bad {
		return errBad
	}
	s.data[k] = v
	s.mu.Unlock()
	return nil
}

// Clean: every path unlocks before its return.
func (s *store) putBalanced(k string, v int, bad bool) error {
	s.mu.Lock()
	if bad {
		s.mu.Unlock()
		return errBad
	}
	s.data[k] = v
	s.mu.Unlock()
	return nil
}

// Clean: the canonical defer prologue balances every exit, early or
// late — this exact shape must never be flagged.
func (s *store) putDeferred(k string, v int, bad bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if bad {
		return errBad
	}
	s.data[k] = v
	return nil
}

// Clean: a deferred closure that unlocks counts too.
func (s *store) putDeferredClosure(k string, v int) {
	s.mu.Lock()
	defer func() {
		s.data["writes"]++
		s.mu.Unlock()
	}()
	s.data[k] = v
}

// Flagged: a panic path is an exit too; without the defer the lock
// leaks into the recover handler upstream.
func (s *store) putOrPanic(k string, v int) {
	s.mu.Lock() // want `s\.mu\.Lock\(\) is not released on every path to panic/exit`
	if s.data == nil {
		panic("store: nil map")
	}
	s.data[k] = v
	s.mu.Unlock()
}

// Flagged: read locks leak the same way; the suggestion names RUnlock.
func (s *store) getLeaky(k string) (int, bool) {
	s.rw.RLock() // want `s\.rw\.RLock\(\) is not released on every path to return.*defer s\.rw\.RUnlock\(\)`
	v, ok := s.data[k]
	if !ok {
		return 0, false
	}
	s.rw.RUnlock()
	return v, true
}

// Clean: lock/unlock strictly inside the loop body — the back edge
// re-enters the header lock-free.
func (s *store) drainLoop(keys []string) {
	for _, k := range keys {
		s.mu.Lock()
		delete(s.data, k)
		s.mu.Unlock()
	}
}

// Clean: correlated conditions. Flow analysis cannot see that the two
// ifs take the same arm, so the must-held intersection at the merge
// drops the lock — conservative, but guaranteed no false positive.
func (s *store) correlated(locked bool) {
	if locked {
		s.mu.Lock()
	}
	s.data["x"]++
	if locked {
		s.mu.Unlock()
	}
}

// Clean: a lock held across a bounded loop and released after it.
func (s *store) sumHeld(keys []string) int {
	total := 0
	s.mu.Lock()
	for _, k := range keys {
		total += s.data[k]
	}
	s.mu.Unlock()
	return total
}

// Flagged: a switch with one leaking case.
func (s *store) switchLeak(mode int) {
	s.mu.Lock() // want `s\.mu\.Lock\(\) is not released on every path to return`
	switch mode {
	case 0:
		s.mu.Unlock()
	case 1:
		return // leaks
	default:
		s.mu.Unlock()
	}
}

// Clean: a goroutine body balances its own acquisitions; the launcher
// holds nothing.
func (s *store) asyncPut(k string, v int) {
	go func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.data[k] = v
	}()
}

var errBad = errType{}

type errType struct{}

func (errType) Error() string { return "bad" }

// Seed lockbalance-3 (internal/analysis/testdata/mutations): the first
// recorded error wins, and the early return for every later one skips
// the Unlock. The server records at most one accept error, so no test
// reaches the leak; the next Err() would deadlock.
type server struct {
	errMu   sync.Mutex
	loopErr error
}

func (s *server) setErr(err error) {
	s.errMu.Lock() // want `s\.errMu\.Lock\(\) is not released on every path to return`
	if s.loopErr != nil {
		return
	}
	s.loopErr = err
	s.errMu.Unlock()
}
