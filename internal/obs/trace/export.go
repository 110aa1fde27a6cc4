package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one Chrome trace_event object. Spans map to complete
// events (ph "X"), instants to instant events (ph "i");
// timestamps and durations are microseconds as the format requires.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeDoc is the JSON-object flavor of the format, which both
// chrome://tracing and Perfetto load.
type chromeDoc struct {
	TraceEvents []chromeEvent  `json:"traceEvents"`
	Metadata    map[string]any `json:"metadata,omitempty"`
}

// WriteChrome renders the snapshot as Chrome trace_event JSON,
// loadable in chrome://tracing and Perfetto. Every event carries the
// run ID, its span ID, and its parent link in args, so one file from
// one run correlates DRP splits, CDS moves, broadcast cycles, and
// connection lifecycles on a single timeline.
//
//diverselint:coldpath post-run trace export, never on the traced path itself
func WriteChrome(w io.Writer, snap Snapshot) error {
	doc := chromeDoc{
		TraceEvents: make([]chromeEvent, 0, len(snap.Records)+1),
		Metadata: map[string]any{
			"run_id":          snap.RunID,
			"dropped_records": snap.Dropped,
		},
	}
	doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
		Name: "process_name", Phase: "M", PID: 1, TID: 1,
		Args: map[string]any{"name": "diversecast run " + snap.RunID},
	})
	for _, r := range snap.Records {
		ev := chromeEvent{
			Name:  r.Name,
			Cat:   r.Kind.String(),
			Phase: "X",
			TS:    float64(r.Start) / 1e3,
			PID:   1,
			TID:   1,
			Args:  make(map[string]any, len(r.Attrs)+3),
		}
		switch r.Kind {
		case KindSpan:
			dur := float64(r.Dur) / 1e3
			ev.Dur = &dur
		default:
			ev.Phase = "i"
			ev.Scope = "t"
		}
		for _, a := range r.Attrs {
			ev.Args[a.Key] = a.Value()
		}
		ev.Args["run_id"] = snap.RunID
		if r.Span != 0 {
			ev.Args["span_id"] = r.Span
		}
		if r.Parent != 0 && r.Parent != r.Span {
			ev.Args["parent_id"] = r.Parent
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// WriteText renders the snapshot as a human-readable timeline: one
// line per record ordered by start time (emission order breaks ties),
// with millisecond offsets, span durations, and attributes.
//
//diverselint:coldpath post-run trace export, never on the traced path itself
func WriteText(w io.Writer, snap Snapshot) error {
	recs := make([]Record, len(snap.Records))
	copy(recs, snap.Records)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
	if _, err := fmt.Fprintf(w, "run %s (%d records, %d dropped)\n",
		snap.RunID, len(snap.Records), snap.Dropped); err != nil {
		return err
	}
	for _, r := range recs {
		var err error
		switch r.Kind {
		case KindSpan:
			_, err = fmt.Fprintf(w, "[%12.3fms +%.3fms] %s", ms(r.Start), ms(r.Dur), r.Name)
		default:
			_, err = fmt.Fprintf(w, "[%12.3fms] %s %s", ms(r.Start), r.Kind, r.Name)
		}
		if err != nil {
			return err
		}
		for _, a := range r.Attrs {
			if _, err := fmt.Fprintf(w, " %s", a); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
