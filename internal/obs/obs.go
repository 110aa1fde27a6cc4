// Package obs is a small, dependency-free, concurrency-safe metrics
// layer: atomic counters and gauges, fixed-bin histograms safe for
// concurrent writers, and a Registry that renders Prometheus-style
// text exposition and cheap point-in-time snapshots for tests.
//
// Hot paths hold a *Counter / *Gauge / *Histogram pointer obtained
// once at setup and pay a single atomic operation per event; the
// registry mutex is only taken at registration and exposition time.
// Instrumented packages default to the process-wide Default()
// registry, so cmd/bcastserver can expose every subsystem from one
// /metrics endpoint, but accept an explicit registry where isolation
// matters (tests, multiple servers in one process).
package obs

import "sync/atomic"

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
//diverselint:hotpath per-sample counter bump
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
//
//diverselint:hotpath per-sample counter bump
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that may go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
//
//diverselint:hotpath per-sample gauge store
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc and Dec adjust the value by ±1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// defaultRegistry is the process-wide registry used by instrumented
// packages unless an explicit one is injected.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }
