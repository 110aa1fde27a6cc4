package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// metricKind discriminates the registry's metric families.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// series is one labeled instance within a family.
type series struct {
	labels string // rendered {k="v",...}, or ""
	ctr    *Counter
	gge    *Gauge
	hst    *Histogram
}

// family groups all label variants of one metric name.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series          // registration order
	byLab  map[string]*series // rendered labels → series
}

// Registry holds metric families and renders them. Registration is
// get-or-create: asking for an existing (name, labels) pair returns
// the same underlying metric, so packages can register at init time
// and tests can re-register freely. Registering the same name with a
// different kind is a programming error and panics.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// renderLabels turns alternating key, value pairs into a canonical
// {k="v",...} string (keys sorted, values escaped). Empty input
// renders as "".
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("obs: labels must be alternating key, value pairs")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// lookup finds or creates the (family, series) for name/labels.
func (r *Registry) lookup(name, help string, kind metricKind, labels []string) *series {
	lab := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byLab: make(map[string]*series)}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	s := f.byLab[lab]
	if s == nil {
		s = &series{labels: lab}
		f.byLab[lab] = s
		f.series = append(f.series, s)
	}
	return s
}

// Counter registers (or finds) a counter. labels are alternating
// key, value pairs, e.g. Counter("frames_total", "...", "channel", "0").
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.lookup(name, help, kindCounter, labels)
	if s.ctr == nil {
		s.ctr = &Counter{}
	}
	return s.ctr
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.lookup(name, help, kindGauge, labels)
	if s.gge == nil {
		s.gge = &Gauge{}
	}
	return s.gge
}

// Histogram registers (or finds) a histogram with fixed-width bins
// over [lo, hi). On a pre-existing series the original shape wins and
// lo/hi/bins are ignored.
func (r *Registry) Histogram(name, help string, lo, hi float64, bins int, labels ...string) *Histogram {
	s := r.lookup(name, help, kindHistogram, labels)
	if s.hst == nil {
		s.hst = newHistogram(lo, hi, bins)
	}
	return s.hst
}

// Snapshot is a point-in-time copy of every metric in a registry,
// keyed by name plus rendered labels (e.g. `frames_total{channel="0"}`).
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Counter returns a snapshotted counter value (zero if absent).
func (s Snapshot) Counter(key string) int64 { return s.Counters[key] }

// Gauge returns a snapshotted gauge value (zero if absent).
func (s Snapshot) Gauge(key string) int64 { return s.Gauges[key] }

// Snapshot copies the current value of every registered metric.
//
//diverselint:coldpath scrape-path copy of every series, not per-sample
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.fams[name]
		for _, s := range f.series {
			key := f.name + s.labels
			switch f.kind {
			case kindCounter:
				snap.Counters[key] = s.ctr.Value()
			case kindGauge:
				snap.Gauges[key] = s.gge.Value()
			case kindHistogram:
				snap.Histograms[key] = s.hst.Snapshot()
			}
		}
	}
	return snap
}

// WriteText renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers per family, one line per
// series, histograms as cumulative le-buckets plus _sum and _count.
//
//diverselint:coldpath scrape-path text exposition render, not per-sample
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		f := r.fams[name]
		// Copy the series slice so rendering proceeds without the lock;
		// metric reads are atomic.
		cp := &family{name: f.name, help: f.help, kind: f.kind, series: append([]*series(nil), f.series...)}
		fams = append(fams, cp)
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.ctr.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.gge.Value())
			case kindHistogram:
				writeHistogramText(&b, f.name, s.labels, s.hst.Snapshot())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogramText renders one histogram series: cumulative buckets
// at each bin upper edge (underflow mass is below the first edge, so
// it is included from the first bucket on), then +Inf, _sum, _count.
//
//diverselint:coldpath scrape-path text exposition render, not per-sample
func writeHistogramText(b *strings.Builder, name, labels string, h HistogramSnapshot) {
	binSize := (h.Hi - h.Lo) / float64(len(h.Bins))
	cum := h.Under
	for i, c := range h.Bins {
		cum += c
		le := h.Lo + float64(i+1)*binSize
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLE(labels, strconv.FormatFloat(le, 'g', -1, 64)), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLE(labels, "+Inf"), h.Count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labels, strconv.FormatFloat(h.Sum, 'g', -1, 64))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, h.Count)
}

// mergeLE merges an le="..." label into an existing rendered label
// set.
func mergeLE(labels, le string) string {
	if labels == "" {
		return `{le="` + le + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + le + `"}`
}

// Handler serves the registry as a /metrics-style HTTP endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		//diverselint:ignore errdrop a failed metrics write means the scraper hung up mid-response; there is no caller to report to and the next scrape starts fresh
		_ = r.WriteText(w)
	})
}
