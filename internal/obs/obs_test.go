package obs_test

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"diversecast/internal/obs"
)

func TestCounterAndGauge(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("reqs_total", "requests")
	c.Inc()
	c.Add(4)
	c.Add(-3) // counters never go down
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := obs.NewRegistry()
	a := r.Counter("x_total", "x", "channel", "0")
	b := r.Counter("x_total", "x", "channel", "0")
	if a != b {
		t.Fatal("same (name, labels) must return the same counter")
	}
	c := r.Counter("x_total", "x", "channel", "1")
	if a == c {
		t.Fatal("different labels must return different counters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter name as a gauge must panic")
		}
	}()
	r.Gauge("x_total", "x")
}

func TestLabelOrderIsCanonical(t *testing.T) {
	r := obs.NewRegistry()
	a := r.Counter("y_total", "y", "b", "2", "a", "1")
	b := r.Counter("y_total", "y", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order must not distinguish series")
	}
	a.Inc()
	snap := r.Snapshot()
	if snap.Counter(`y_total{a="1",b="2"}`) != 1 {
		t.Fatalf("snapshot keys = %v", snap.Counters)
	}
}

func TestHistogramSum(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("s", "", 0, 1, 4)
	for _, x := range []float64{0.1, 0.2, 0.7} {
		h.Observe(x)
	}
	if got := h.Sum(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("sum = %v", got)
	}
}

func TestConcurrentWrites(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", 0, 1, 10)
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(rng.Float64())
			}
		}(int64(w))
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d", c.Value())
	}
	if g.Value() != workers*per {
		t.Fatalf("gauge = %d", g.Value())
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d", h.Count())
	}
	snap := h.Snapshot()
	var binned int64 = snap.Under + snap.Over
	for _, b := range snap.Bins {
		binned += b
	}
	if binned != snap.Count {
		t.Fatalf("bins sum to %d, count %d", binned, snap.Count)
	}
}

func TestWriteTextExposition(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("frames_total", "frames sent", "channel", "0").Add(3)
	r.Gauge("subs", "live subscribers").Set(2)
	h := r.Histogram("wait_seconds", "waits", 0, 2, 2)
	h.Observe(-1) // underflow
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99) // overflow

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP frames_total frames sent",
		"# TYPE frames_total counter",
		`frames_total{channel="0"} 3`,
		"# TYPE subs gauge",
		"subs 2",
		"# TYPE wait_seconds histogram",
		`wait_seconds_bucket{le="1"} 2`, // underflow + first bin, cumulative
		`wait_seconds_bucket{le="2"} 3`,
		`wait_seconds_bucket{le="+Inf"} 4`,
		"wait_seconds_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestDefaultRegistryIsShared(t *testing.T) {
	a := obs.Default().Counter("obs_test_shared_total", "")
	b := obs.Default().Counter("obs_test_shared_total", "")
	if a != b {
		t.Fatal("Default() must return one shared registry")
	}
}

// TestWriteTextGolden pins the complete exposition output byte for
// byte: family order follows registration order, histograms emit
// cumulative buckets then _sum and _count, and scrapers parsing the
// Prometheus text format get exactly this shape.
func TestWriteTextGolden(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("netcast_frames_sent_total", "frames enqueued", "channel", "0").Add(7)
	r.Counter("netcast_frames_sent_total", "frames enqueued", "channel", "1").Add(2)
	r.Gauge("runtime_goroutines", "goroutines currently live").Set(11)
	h := r.Histogram("cds_refine_seconds", "refinement latency", 0, 1, 2)
	h.Observe(0.25)
	h.Observe(0.25)
	h.Observe(0.75)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP netcast_frames_sent_total frames enqueued
# TYPE netcast_frames_sent_total counter
netcast_frames_sent_total{channel="0"} 7
netcast_frames_sent_total{channel="1"} 2
# HELP runtime_goroutines goroutines currently live
# TYPE runtime_goroutines gauge
runtime_goroutines 11
# HELP cds_refine_seconds refinement latency
# TYPE cds_refine_seconds histogram
cds_refine_seconds_bucket{le="0.5"} 2
cds_refine_seconds_bucket{le="1"} 3
cds_refine_seconds_bucket{le="+Inf"} 3
cds_refine_seconds_sum 1.25
cds_refine_seconds_count 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition output mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
