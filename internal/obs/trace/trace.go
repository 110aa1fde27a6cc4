// Package trace is a dependency-free, low-overhead tracing and
// structured-event subsystem: spans with monotonic start/duration,
// key/value attributes and parent links, instant events, and a
// run-correlation ID shared by everything one run emits. Records land
// in a fixed-size ring buffer that never blocks producers (overflow
// increments a drop counter) and can be exported as Chrome
// `trace_event` JSON (chrome://tracing, Perfetto) or human-readable
// text.
//
// The subsystem is built for always-present instrumentation on hot
// paths: a disabled tracer costs a nil check plus one atomic load per
// Start/Event call and allocates nothing (the overhead microbenchmarks
// in bench_test.go pin this), so core's DRP/CDS loops and netcast's
// frame path carry their probes unconditionally. Timestamps come from
// an injectable Clock — wall-clock monotonic by default, a ManualClock
// in tests, or a virtual simulation clock (internal/airsim stamps its
// spans with simulated time via the *At variants) — so traces are
// replayable and golden-testable.
//
// Instrumented packages default to the process-wide Default() tracer,
// which starts disabled; daemons enable it (`bcastsim -trace`,
// `bcastserver /debug/obstrace`) and tests inject their own Tracer
// where isolation matters. Span and event names follow the same
// convention as obs metric names — compile-time snake_case constants,
// enforced by the obsnames analyzer — so timelines and metric series
// key on the same vocabulary.
package trace

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Clock supplies monotonic timestamps in nanoseconds. Implementations
// must be safe for concurrent use.
type Clock interface {
	Now() int64
}

// wallClock is the default clock: nanoseconds since the tracer was
// enabled, read off Go's monotonic clock (immune to wall adjustments).
type wallClock struct {
	epoch time.Time
}

func (c wallClock) Now() int64 { return int64(time.Since(c.epoch)) }

// ManualClock is a deterministic Clock for tests and replayable
// traces: it only moves when told to.
type ManualClock struct {
	ns atomic.Int64
}

// Now returns the current manual time in nanoseconds.
func (c *ManualClock) Now() int64 { return c.ns.Load() }

// Set jumps the clock to ns nanoseconds.
func (c *ManualClock) Set(ns int64) { c.ns.Store(ns) }

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) { c.ns.Add(int64(d)) }

// Config parameterizes an enabled tracer. The zero value selects a
// wall clock, a generated run ID, and the default ring capacity.
type Config struct {
	// Capacity is the ring-buffer size in records. Default 8192.
	Capacity int
	// Clock supplies timestamps. Default: monotonic nanoseconds since
	// Enable.
	Clock Clock
	// RunID correlates every span and event of one run.
	// Default: a generated unique ID.
	RunID string
}

// state bundles the hot-path configuration an enabled tracer reads;
// swapped atomically by Enable so emitters never lock.
type state struct {
	clock Clock
	runID string
	ring  *ring
}

// Tracer emits spans and events. The zero value and the nil pointer
// are valid, permanently-disabled tracers; New returns an enabled one.
// All methods are safe for concurrent use.
type Tracer struct {
	enabled atomic.Bool
	st      atomic.Pointer[state]
	nextID  atomic.Uint64
}

// defaultTracer is the process-wide tracer instrumented packages fall
// back to. It starts disabled: until a daemon enables it, every probe
// in core/netcast/airsim is a nil check plus one atomic load.
var defaultTracer = &Tracer{}

// Default returns the process-wide tracer.
func Default() *Tracer { return defaultTracer }

// New returns a tracer enabled with cfg.
func New(cfg Config) *Tracer {
	t := &Tracer{}
	t.Enable(cfg)
	return t
}

// runSeq disambiguates run IDs generated within one millisecond.
var runSeq atomic.Uint64

// newRunID generates a unique-enough run correlation ID.
func newRunID() string {
	return fmt.Sprintf("%x-%x", time.Now().UnixMilli(), runSeq.Add(1))
}

// Enable (re)configures the tracer and turns it on. Records emitted
// before Enable are lost; spans started before a re-Enable land in the
// new ring when they end.
func (t *Tracer) Enable(cfg Config) {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 8192
	}
	if cfg.Clock == nil {
		cfg.Clock = wallClock{epoch: time.Now()}
	}
	if cfg.RunID == "" {
		cfg.RunID = newRunID()
	}
	t.st.Store(&state{clock: cfg.Clock, runID: cfg.RunID, ring: newRing(cfg.Capacity)})
	t.enabled.Store(true)
}

// Disable turns the tracer off. The ring's contents stay readable via
// Snapshot until the next Enable.
func (t *Tracer) Disable() { t.enabled.Store(false) }

// Enabled reports whether the tracer is currently recording.
//
//diverselint:hotpath probe check on every instrumented operation
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// RunID returns the current run-correlation ID ("" when the tracer
// has never been enabled).
func (t *Tracer) RunID() string {
	if t == nil {
		return ""
	}
	st := t.st.Load()
	if st == nil {
		return ""
	}
	return st.runID
}

// Snapshot copies the ring's current contents (oldest first) together
// with the run ID and drop count. A never-enabled tracer snapshots
// empty.
func (t *Tracer) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	st := t.st.Load()
	if st == nil {
		return Snapshot{}
	}
	recs, dropped := st.ring.snapshot()
	return Snapshot{RunID: st.runID, Records: recs, Dropped: dropped}
}

// Start begins a root span. On a disabled tracer it returns the
// inactive zero Span, whose methods all no-op.
//
//diverselint:hotpath disabled-tracer path must be allocation-free
func (t *Tracer) Start(name string, attrs ...Attr) Span {
	if !t.Enabled() {
		return Span{}
	}
	st := t.st.Load()
	return Span{t: t, id: t.nextID.Add(1), name: name, start: st.clock.Now(), attrs: attrs}
}

// StartAt is Start with an explicit timestamp (nanoseconds on the
// caller's clock), for emitters that keep their own time base — the
// discrete-event simulator stamps spans with virtual time.
func (t *Tracer) StartAt(name string, ts int64, attrs ...Attr) Span {
	if !t.Enabled() {
		return Span{}
	}
	return Span{t: t, id: t.nextID.Add(1), name: name, start: ts, attrs: attrs}
}

// Event records an instant event outside any span.
//
//diverselint:hotpath disabled-tracer path must be allocation-free
func (t *Tracer) Event(name string, attrs ...Attr) {
	if !t.Enabled() {
		return
	}
	st := t.st.Load()
	st.ring.append(Record{Kind: KindEvent, Name: name, Start: st.clock.Now(), Attrs: attrs})
}

// EventAt is Event with an explicit timestamp.
func (t *Tracer) EventAt(name string, ts int64, attrs ...Attr) {
	if !t.Enabled() {
		return
	}
	t.st.Load().ring.append(Record{Kind: KindEvent, Name: name, Start: ts, Attrs: attrs})
}

// Span is one traced operation: a name, a monotonic start and
// duration, attributes, and a link to its parent. Spans are small
// values; copying one is fine. The zero Span is inactive and all its
// methods no-op, so call sites need no nil checks.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	start  int64
	attrs  []Attr
}

// Active reports whether the span is recording; use it to skip
// expensive attribute computation when tracing is off.
//
//diverselint:hotpath probe check on every instrumented operation
func (s Span) Active() bool { return s.t != nil }

// ID returns the span's identifier (0 for an inactive span).
func (s Span) ID() uint64 { return s.id }

// Child begins a sub-span of s.
func (s Span) Child(name string, attrs ...Attr) Span {
	if s.t == nil || !s.t.Enabled() {
		return Span{}
	}
	st := s.t.st.Load()
	return Span{t: s.t, id: s.t.nextID.Add(1), parent: s.id, name: name, start: st.clock.Now(), attrs: attrs}
}

// ChildAt is Child with an explicit timestamp.
func (s Span) ChildAt(name string, ts int64, attrs ...Attr) Span {
	if s.t == nil || !s.t.Enabled() {
		return Span{}
	}
	return Span{t: s.t, id: s.t.nextID.Add(1), parent: s.id, name: name, start: ts, attrs: attrs}
}

// Event records an instant event inside s.
func (s Span) Event(name string, attrs ...Attr) {
	if s.t == nil || !s.t.Enabled() {
		return
	}
	st := s.t.st.Load()
	st.ring.append(Record{Kind: KindEvent, Name: name, Span: s.id, Parent: s.id, Start: st.clock.Now(), Attrs: attrs})
}

// EventAt is Event with an explicit timestamp.
func (s Span) EventAt(name string, ts int64, attrs ...Attr) {
	if s.t == nil || !s.t.Enabled() {
		return
	}
	s.t.st.Load().ring.append(Record{Kind: KindEvent, Name: name, Span: s.id, Parent: s.id, Start: ts, Attrs: attrs})
}

// End completes the span, appending it to the ring with its measured
// duration. extra attributes (results, counts, outcomes) are appended
// after the ones given at Start. Ending an inactive span is a no-op;
// ending twice records twice — don't.
//
//diverselint:hotpath inactive-span path must be allocation-free
func (s Span) End(extra ...Attr) {
	if s.t == nil || !s.t.Enabled() {
		return
	}
	st := s.t.st.Load()
	s.endAt(st, st.clock.Now(), extra)
}

// EndAt is End with an explicit timestamp.
func (s Span) EndAt(ts int64, extra ...Attr) {
	if s.t == nil || !s.t.Enabled() {
		return
	}
	s.endAt(s.t.st.Load(), ts, extra)
}

func (s Span) endAt(st *state, ts int64, extra []Attr) {
	attrs := s.attrs
	if len(extra) > 0 {
		attrs = make([]Attr, 0, len(s.attrs)+len(extra))
		attrs = append(attrs, s.attrs...)
		attrs = append(attrs, extra...)
	}
	dur := ts - s.start
	if dur < 0 {
		dur = 0
	}
	st.ring.append(Record{
		Kind: KindSpan, Name: s.name, Span: s.id, Parent: s.parent,
		Start: s.start, Dur: dur, Attrs: attrs,
	})
}
