package trace

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

func manualTracer(capacity int) (*Tracer, *ManualClock) {
	clk := &ManualClock{}
	return New(Config{Capacity: capacity, Clock: clk, RunID: "test-run"}), clk
}

func TestSpanLifecycle(t *testing.T) {
	tr, clk := manualTracer(16)
	root := tr.Start("root_op", Str("alg", "drp"))
	if !root.Active() {
		t.Fatal("enabled tracer returned an inactive span")
	}
	clk.Advance(time.Millisecond)
	child := root.Child("child_op", Int("step", 1))
	clk.Advance(2 * time.Millisecond)
	child.Event("midpoint", Float("cost", 7.26))
	clk.Advance(time.Millisecond)
	child.End(Bool("ok", true))
	clk.Advance(time.Millisecond)
	root.End()

	snap := tr.Snapshot()
	if snap.RunID != "test-run" {
		t.Fatalf("run ID = %q", snap.RunID)
	}
	if got := snap.Sequence(); !reflect.DeepEqual(got, []string{"midpoint", "child_op", "root_op"}) {
		t.Fatalf("sequence = %v", got)
	}

	ev := snap.Records[0]
	if ev.Kind != KindEvent || ev.Span != child.ID() || ev.Start != int64(3*time.Millisecond) {
		t.Fatalf("event record = %+v", ev)
	}
	if a, ok := ev.Attr("cost"); !ok || a.Float != 7.26 {
		t.Fatalf("event cost attr = %+v ok=%v", a, ok)
	}

	ch := snap.Records[1]
	if ch.Kind != KindSpan || ch.Parent != root.ID() || ch.Span != child.ID() {
		t.Fatalf("child record = %+v", ch)
	}
	if ch.Start != int64(time.Millisecond) || ch.Dur != int64(3*time.Millisecond) {
		t.Fatalf("child timing = start %d dur %d", ch.Start, ch.Dur)
	}
	// End attrs append after Start attrs.
	if len(ch.Attrs) != 2 || ch.Attrs[0].Key != "step" || ch.Attrs[1].Key != "ok" {
		t.Fatalf("child attrs = %v", ch.Attrs)
	}

	rt := snap.Records[2]
	if rt.Parent != 0 || rt.Dur != int64(5*time.Millisecond) {
		t.Fatalf("root record = %+v", rt)
	}
}

func TestExplicitTimestamps(t *testing.T) {
	tr, _ := manualTracer(8)
	s := tr.StartAt("virtual_cycle", 1_000_000, Int("cycle", 3))
	s.EventAt("tune_in", 1_500_000)
	s.EndAt(4_000_000)
	tr.EventAt("standalone", 9_000_000)

	snap := tr.Snapshot()
	if len(snap.Records) != 3 {
		t.Fatalf("records = %d", len(snap.Records))
	}
	if sp := snap.Records[1]; sp.Start != 1_000_000 || sp.Dur != 3_000_000 {
		t.Fatalf("span timing = %+v", sp)
	}
	if ev := snap.Records[2]; ev.Start != 9_000_000 || ev.Span != 0 {
		t.Fatalf("standalone event = %+v", ev)
	}
}

func TestDisabledAndNilTracersNoOp(t *testing.T) {
	var nilT *Tracer
	if nilT.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	s := nilT.Start("anything_goes")
	if s.Active() {
		t.Fatal("nil tracer produced an active span")
	}
	s.Event("ev")
	s.End()
	nilT.Event("ev")
	if snap := nilT.Snapshot(); len(snap.Records) != 0 || snap.RunID != "" {
		t.Fatalf("nil tracer snapshot = %+v", snap)
	}

	tr := &Tracer{} // zero value: never enabled
	sp := tr.Start("zero_span")
	sp.Child("child").End()
	sp.End()
	if snap := tr.Snapshot(); len(snap.Records) != 0 {
		t.Fatalf("zero tracer captured %d records", len(snap.Records))
	}

	// Disable drops records emitted afterwards but keeps the ring.
	tr2, _ := manualTracer(8)
	tr2.Start("kept_span").End()
	tr2.Disable()
	tr2.Start("lost_span").End()
	tr2.Event("lost_event")
	snap := tr2.Snapshot()
	if got := snap.Sequence(); !reflect.DeepEqual(got, []string{"kept_span"}) {
		t.Fatalf("post-disable sequence = %v", got)
	}
}

// A span straddling Disable must not record; a span straddling Enable
// records into the new ring.
func TestSpanStraddlingDisable(t *testing.T) {
	tr, _ := manualTracer(8)
	s := tr.Start("straddler")
	tr.Disable()
	s.End()
	if n := len(tr.Snapshot().Records); n != 0 {
		t.Fatalf("straddling span recorded (%d records)", n)
	}
}

func TestRingOverflowDropsOldestNeverBlocks(t *testing.T) {
	tr, clk := manualTracer(4)
	for i := 0; i < 10; i++ {
		clk.Advance(time.Microsecond)
		tr.Event("tick", Int("i", int64(i)))
	}
	snap := tr.Snapshot()
	if len(snap.Records) != 4 {
		t.Fatalf("ring holds %d records, want 4", len(snap.Records))
	}
	if snap.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", snap.Dropped)
	}
	// The newest records survive.
	for i, r := range snap.Records {
		if a, _ := r.Attr("i"); a.Int != int64(6+i) {
			t.Fatalf("record %d has i=%d, want %d", i, a.Int, 6+i)
		}
	}
}

func TestConcurrentProducers(t *testing.T) {
	tr := New(Config{Capacity: 128, RunID: "conc"})
	var wg sync.WaitGroup
	const goroutines, each = 8, 200
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s := tr.Start("worker_op", Int("g", int64(g)))
				s.Event("step")
				s.End()
			}
		}(g)
	}
	wg.Wait()
	snap := tr.Snapshot()
	if len(snap.Records) != 128 {
		t.Fatalf("ring holds %d records", len(snap.Records))
	}
	total := uint64(len(snap.Records)) + snap.Dropped
	if want := uint64(goroutines * each * 2); total != want {
		t.Fatalf("total records = %d, want %d", total, want)
	}
}

func TestSpanIDsUniqueAndRunIDGenerated(t *testing.T) {
	tr := New(Config{Capacity: 8})
	if tr.RunID() == "" {
		t.Fatal("no run ID generated")
	}
	a, b := tr.Start("op_a"), tr.Start("op_b")
	if a.ID() == b.ID() || a.ID() == 0 {
		t.Fatalf("span IDs %d, %d", a.ID(), b.ID())
	}
	other := New(Config{Capacity: 8})
	if other.RunID() == tr.RunID() {
		t.Fatalf("two tracers share run ID %q", tr.RunID())
	}
}

func TestDefaultTracerStartsDisabled(t *testing.T) {
	if Default().Enabled() {
		t.Fatal("process-wide tracer is enabled before any daemon enabled it")
	}
	if s := Default().Start("should_not_record"); s.Active() {
		t.Fatal("disabled default tracer returned an active span")
	}
}

func TestAttrRendering(t *testing.T) {
	cases := []struct {
		a    Attr
		want string
		val  any
	}{
		{Str("alg", "drp"), "alg=drp", "drp"},
		{Int("k", 5), "k=5", int64(5)},
		{Float("cost", 22.29), "cost=22.29", 22.29},
		{Bool("ok", true), "ok=true", true},
		{Bool("ok", false), "ok=false", false},
	}
	for _, c := range cases {
		if got := c.a.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
		if got := c.a.Value(); got != c.val {
			t.Errorf("Value() = %v (%T), want %v", got, got, c.val)
		}
	}
	if got := fmt.Sprint(KindSpan, KindEvent, RecordKind(9)); got != "span event unknown" {
		t.Errorf("kind strings = %q", got)
	}
}
