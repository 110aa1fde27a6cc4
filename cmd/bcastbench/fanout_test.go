package main

import (
	"bytes"
	"encoding/json"
	"net"
	"testing"

	"diversecast/internal/wire"
)

func TestWindowDeliveries(t *testing.T) {
	cases := []struct {
		name        string
		first, next int64
		skips       []seqRange
		lo, hi      int64
		got, want   int64
	}{
		// Attached before the window, caught up past its end.
		{"whole window", 0, 200, nil, 100, 150, 50, 50},
		// The backlog case: frames 40..99 were broadcast before the
		// window and drained inside it; they must not count.
		{"backlog drained in window", 0, 150, nil, 100, 150, 50, 50},
		// Still behind at the end: frames of the window not yet
		// handed over are missing.
		{"lagging at close", 0, 130, nil, 100, 150, 30, 50},
		// Attached mid-window: owed only from its attach point.
		{"attached mid-window", 120, 150, nil, 100, 150, 30, 30},
		// Attached after the window: owed nothing.
		{"attached after", 160, 200, nil, 100, 150, 0, 0},
		// A resync skipped 110..120 inside the window and 90..100
		// before it.
		{"skips", 0, 150, []seqRange{{90, 100}, {110, 120}}, 100, 150, 40, 50},
		// A skip straddling the window start counts only its part
		// inside the window.
		{"skip across start", 0, 150, []seqRange{{95, 105}}, 100, 150, 45, 50},
	}
	for _, tc := range cases {
		got, want := windowDeliveries(tc.first, tc.next, tc.skips, tc.lo, tc.hi)
		if got != tc.got || want != tc.want {
			t.Errorf("%s: got %d/%d, want %d/%d", tc.name, got, want, tc.got, tc.want)
		}
		if got > want {
			t.Errorf("%s: delivered %d exceeds owed %d", tc.name, got, want)
		}
	}
}

// frame encodes one wire frame.
func frame(t *testing.T, typ wire.MsgType, body []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := wire.WriteFrame(&b, typ, body); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// feed writes the subscriber's frame stream: 3 frames, a resync
// skipping 5, then 2 more frames.
func feed(t *testing.T, write func([]byte)) {
	t.Helper()
	rs, err := json.Marshal(wire.Resync{Channel: 0, Skipped: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		write(frame(t, wire.MsgItemChunk, []byte("payload")))
	}
	write(frame(t, wire.MsgResync, rs))
	for i := 0; i < 2; i++ {
		write(frame(t, wire.MsgItemChunk, []byte("payload")))
	}
}

// checkTally asserts the tally of feed's stream attached at sequence
// 10: it advanced 3+5+2 frames, and the window [12, 25) holds frames
// 12 and 18–19 — the skipped 13–17 and the not-yet-broadcast 20–24
// count as missing.
func checkTally(t *testing.T, tl *frameTally) {
	t.Helper()
	if got := tl.advanced.Load(); got != 10 {
		t.Fatalf("advanced %d, want 10", got)
	}
	if got := tl.malformed.Load(); got != 0 {
		t.Fatalf("malformed %d, want 0", got)
	}
	if got, want := tl.window(12, 25); got != 3 || want != 13 {
		t.Fatalf("window got %d/%d, want 3/13", got, want)
	}
}

func TestBenchSinkTally(t *testing.T) {
	sk := &benchSink{}
	sk.first = 10
	feed(t, func(p []byte) {
		if _, err := sk.Write(p); err != nil {
			t.Fatal(err)
		}
	})
	checkTally(t, &sk.frameTally)
	if _, err := sk.Write([]byte{0, 0, 0, 9, 1}); err != nil {
		t.Fatal(err)
	}
	if got := sk.malformed.Load(); got != 1 {
		t.Fatalf("short frame counted malformed %d times, want 1", got)
	}
}

func TestTCPDrainTally(t *testing.T) {
	server, client := net.Pipe()
	d := &tcpDrain{conn: client}
	d.first = 10
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.drain()
	}()
	feed(t, func(p []byte) {
		if _, err := server.Write(p); err != nil {
			t.Fatal(err)
		}
	})
	server.Close()
	<-done
	checkTally(t, &d.frameTally)
}
