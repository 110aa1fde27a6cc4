package trace

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// RecordKind discriminates ring-buffer records.
type RecordKind int

const (
	// KindSpan is a completed span (Start + Dur are meaningful).
	KindSpan RecordKind = iota
	// KindEvent is an instant structured event.
	KindEvent
)

// String returns the kind name.
func (k RecordKind) String() string {
	switch k {
	case KindSpan:
		return "span"
	case KindEvent:
		return "event"
	}
	return "unknown"
}

// Record is one entry in the ring buffer. For spans, Span is the
// span's own ID and Parent its parent span (0 = root); for events,
// Span/Parent name the enclosing span (0 = none).
type Record struct {
	Kind   RecordKind
	Name   string
	Span   uint64
	Parent uint64
	Start  int64 // nanoseconds on the emitting clock
	Dur    int64 // nanoseconds; 0 for instants
	Attrs  []Attr
}

// Attr returns the record's attribute with the given key.
func (r Record) Attr(key string) (Attr, bool) {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// AttrKind discriminates attribute value types.
type AttrKind int

// Attribute value kinds.
const (
	AttrString AttrKind = iota
	AttrInt
	AttrFloat
	AttrBool
)

// Attr is one key/value span or event attribute.
type Attr struct {
	Key   string
	Kind  AttrKind
	Str   string
	Int   int64
	Float float64
}

// Str builds a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, Kind: AttrString, Str: v} }

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Kind: AttrInt, Int: v} }

// Float builds a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, Kind: AttrFloat, Float: v} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, Kind: AttrBool}
	if v {
		a.Int = 1
	}
	return a
}

// Value returns the attribute's value as an interface (bool, int64,
// float64, or string), the shape exporters marshal.
func (a Attr) Value() any {
	switch a.Kind {
	case AttrInt:
		return a.Int
	case AttrFloat:
		return a.Float
	case AttrBool:
		return a.Int != 0
	default:
		return a.Str
	}
}

// String renders the attribute as key=value.
func (a Attr) String() string {
	switch a.Kind {
	case AttrInt:
		return a.Key + "=" + strconv.FormatInt(a.Int, 10)
	case AttrFloat:
		return a.Key + "=" + strconv.FormatFloat(a.Float, 'g', -1, 64)
	case AttrBool:
		if a.Int != 0 {
			return a.Key + "=true"
		}
		return a.Key + "=false"
	default:
		return a.Key + "=" + a.Str
	}
}

// Snapshot is a point-in-time copy of a tracer's ring: the records in
// emission order (oldest surviving first), the run ID they share, and
// how many older records the ring dropped to stay fixed-size.
type Snapshot struct {
	RunID   string
	Records []Record
	Dropped uint64
}

// Named returns the snapshot's records with the given name, in
// emission order.
//
//diverselint:coldpath snapshot query helper for tests and post-run analysis
func (s Snapshot) Named(name string) []Record {
	var out []Record
	for _, r := range s.Records {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// Sequence renders the record names in emission order — the compact
// shape lifecycle tests assert against.
func (s Snapshot) Sequence() []string {
	out := make([]string, len(s.Records))
	for i, r := range s.Records {
		out[i] = r.Name
	}
	return out
}

// String summarizes the snapshot (not the full contents).
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run %s: %d records, %d dropped", s.RunID, len(s.Records), s.Dropped)
	return b.String()
}

// ring is the fixed-size record buffer. Appends never block beyond a
// short mutex hold (index bump + struct copy): when the ring is full
// the oldest record is overwritten and counted as dropped, so the
// buffer always holds the newest Capacity records.
type ring struct {
	mu      sync.Mutex
	recs    []Record
	next    uint64 // total records ever appended
	dropped uint64
}

func newRing(capacity int) *ring {
	return &ring{recs: make([]Record, capacity)}
}

func (r *ring) append(rec Record) {
	r.mu.Lock()
	n := uint64(len(r.recs))
	if r.next >= n {
		r.dropped++
	}
	r.recs[r.next%n] = rec
	r.next++
	r.mu.Unlock()
}

// snapshot copies the live records oldest-first.
func (r *ring) snapshot() ([]Record, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.recs))
	live := r.next
	if live > n {
		live = n
	}
	out := make([]Record, 0, live)
	for i := r.next - live; i < r.next; i++ {
		out = append(out, r.recs[i%n])
	}
	return out, r.dropped
}
