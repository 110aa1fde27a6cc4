package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"diversecast/internal/netcast"
)

func TestStartAndTune(t *testing.T) {
	var out bytes.Buffer
	app, err := start([]string{
		"-addr", "127.0.0.1:0", "-paper", "-k", "5", "-timescale", "0.01",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()

	s := out.String()
	for _, want := range []string{"broadcasting on", "DRP-CDS", "channel 0"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	if app.MetricsAddr() != nil {
		t.Error("metrics endpoint running without -metrics")
	}

	c, err := netcast.Tune(app.Addr().String(), 0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.NextItem(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsEndpoint drives the acceptance path: -metrics serves
// Prometheus text exposition with nonzero per-channel frame counters
// while a live client is tuned in.
func TestMetricsEndpoint(t *testing.T) {
	var out bytes.Buffer
	app, err := start([]string{
		"-addr", "127.0.0.1:0", "-paper", "-k", "5", "-timescale", "0.005",
		"-metrics", "127.0.0.1:0",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if app.MetricsAddr() == nil {
		t.Fatal("-metrics did not start an endpoint")
	}
	if !strings.Contains(out.String(), "metrics on http://") {
		t.Errorf("startup output does not announce the metrics endpoint:\n%s", out.String())
	}

	c, err := netcast.Tune(app.Addr().String(), 0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 2; i++ {
		if _, err := c.NextItem(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", app.MetricsAddr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s\n%s", resp.Status, text)
	}
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("content type = %q", resp.Header.Get("Content-Type"))
	}
	for _, want := range []string{
		"# TYPE netcast_frames_sent_total counter",
		`netcast_subscribers_added_total{channel="0"}`,
		"# TYPE core_drp_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The live client must show up as nonzero channel-0 frame traffic.
	var frames int64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, `netcast_frames_sent_total{channel="0"}`) {
			if _, err := fmt.Sscanf(line, `netcast_frames_sent_total{channel="0"} %d`, &frames); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
		}
	}
	if frames == 0 {
		t.Fatalf("channel-0 frame counter is zero under a live client:\n%s", text)
	}

	// pprof rides along on the same endpoint.
	pr, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", app.MetricsAddr()))
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/: %s", pr.Status)
	}
}

// TestFanoutFlags: the ring and limit flags reach the server config
// and still serve a verifiable broadcast.
func TestFanoutFlags(t *testing.T) {
	for _, extra := range [][]string{
		{"-ring-capacity", "64", "-resync-limit", "5"},
		{"-client-rate", "1048576", "-channel-rate", "8388608"},
	} {
		var out bytes.Buffer
		args := append([]string{"-addr", "127.0.0.1:0", "-paper", "-k", "3", "-timescale", "0.01"}, extra...)
		app, err := start(args, &out)
		if err != nil {
			t.Fatalf("args %v: %v", extra, err)
		}
		c, err := netcast.Tune(app.Addr().String(), 0, 2*time.Second)
		if err != nil {
			app.Close()
			t.Fatalf("args %v: %v", extra, err)
		}
		if _, err := c.NextItem(time.Now().Add(5 * time.Second)); err != nil {
			t.Errorf("args %v: %v", extra, err)
		}
		c.Close()
		app.Close()
	}
}

func TestStartErrors(t *testing.T) {
	tests := [][]string{
		{"-paper", "-k", "0"},
		{"-alg", "bogus"},
		{"-catalog", "bogus"},
		{"-addr", "256.256.256.256:-1"},
		{"-timescale", "-1", "-paper", "-k", "2", "-addr", "127.0.0.1:0"},
		{"-paper", "-k", "2", "-addr", "127.0.0.1:0", "-metrics", "256.256.256.256:-1"},
		{"-paper", "-k", "2", "-addr", "127.0.0.1:0", "-ring-capacity", "1"},
		{"-paper", "-k", "2", "-addr", "127.0.0.1:0", "-client-rate", "-5"},
		// flag.Float64 parses NaN and Inf; a NaN -timescale would
		// busy-spin every caster.
		{"-paper", "-k", "2", "-addr", "127.0.0.1:0", "-timescale", "NaN"},
		{"-paper", "-k", "2", "-addr", "127.0.0.1:0", "-timescale", "+Inf"},
		{"-paper", "-k", "2", "-addr", "127.0.0.1:0", "-client-rate", "NaN"},
		{"-paper", "-k", "2", "-addr", "127.0.0.1:0", "-channel-rate", "Inf"},
		{"-wat"},
	}
	for _, args := range tests {
		var out bytes.Buffer
		if app, err := start(args, &out); err == nil {
			app.Close()
			t.Errorf("args %v should fail", args)
		}
	}
}

// TestObstraceEndpoint: the -metrics listener also serves trace-ring
// snapshots on /debug/obstrace (Chrome JSON by default, text with
// ?format=text) and the runtime sampler's gauges appear in /metrics.
func TestObstraceEndpoint(t *testing.T) {
	var out bytes.Buffer
	app, err := start([]string{
		"-addr", "127.0.0.1:0", "-paper", "-k", "5", "-timescale", "0.005",
		"-metrics", "127.0.0.1:0",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if !strings.Contains(out.String(), "/debug/obstrace") {
		t.Errorf("startup output does not announce the trace endpoint:\n%s", out.String())
	}

	// Tune a client so the ring holds netcast lifecycle records.
	c, err := netcast.Tune(app.Addr().String(), 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.NextItem(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/debug/obstrace", app.MetricsAddr()))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/obstrace: %s", resp.Status)
	}
	if got := resp.Header.Get("Content-Type"); !strings.Contains(got, "application/json") {
		t.Errorf("content type = %q, want application/json", got)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, body)
	}
	if id, _ := doc.Metadata["run_id"].(string); id == "" {
		t.Fatal("metadata.run_id missing from snapshot")
	}
	var sawSubscribe bool
	for _, ev := range doc.TraceEvents {
		if ev.Name == "netcast_subscribe" {
			sawSubscribe = true
		}
	}
	if !sawSubscribe {
		t.Errorf("snapshot has no netcast_subscribe event under a tuned client")
	}

	tr, err := http.Get(fmt.Sprintf("http://%s/debug/obstrace?format=text", app.MetricsAddr()))
	if err != nil {
		t.Fatal(err)
	}
	tbody, err := io.ReadAll(tr.Body)
	tr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Header.Get("Content-Type"); !strings.Contains(got, "text/plain") {
		t.Errorf("text content type = %q", got)
	}
	if !strings.HasPrefix(string(tbody), "run ") {
		t.Errorf("text snapshot does not open with the run header:\n%.200s", tbody)
	}

	// The runtime sampler rides along with -metrics.
	mr, err := http.Get(fmt.Sprintf("http://%s/metrics", app.MetricsAddr()))
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(mr.Body)
	mr.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"runtime_goroutines", "runtime_heap_alloc_bytes"} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("/metrics missing runtime gauge %q", want)
		}
	}
}
