package netcast

import (
	"net"
	"sync"
	"testing"
	"time"

	"diversecast/internal/obs"
	"diversecast/internal/obs/trace"
	"diversecast/internal/wire"
)

// attrStr extracts a string attribute or fails the test.
func attrStr(t *testing.T, r trace.Record, key string) string {
	t.Helper()
	a, ok := r.Attr(key)
	if !ok {
		t.Fatalf("record %s has no attr %q (attrs %v)", r.Name, key, r.Attrs)
	}
	return a.Str
}

func attrInt(t *testing.T, r trace.Record, key string) int64 {
	t.Helper()
	a, ok := r.Attr(key)
	if !ok {
		t.Fatalf("record %s has no attr %q (attrs %v)", r.Name, key, r.Attrs)
	}
	return a.Int
}

// TestShutdownLifecycleSequence closes a live server under tuned
// clients and asserts every connection span ends exactly once with
// outcome shutdown — the ring is the witness that dropAll reached
// each subscriber and that finish never double-fires under the
// Close/disconnect race.
func TestShutdownLifecycleSequence(t *testing.T) {
	_, p := testProgram(t)
	tr := trace.New(trace.Config{Capacity: 256})
	srv, err := Serve("127.0.0.1:0", ServerConfig{
		Program: p, TimeScale: 0.005,
		Metrics: obs.NewRegistry(),
		Tracer:  tr,
	})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 3
	var conns []*Client
	for i := 0; i < clients; i++ {
		c, err := Tune(srv.Addr().String(), i%2, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		if _, err := c.NextItem(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range conns {
		c.Close()
	}

	snap := tr.Snapshot()
	subs := snap.Named("netcast_subscribe")
	if len(subs) != clients {
		t.Fatalf("subscribe events = %d, want %d (sequence %v)", len(subs), clients, snap.Sequence())
	}
	spans := snap.Named("netcast_conn")
	if len(spans) != clients {
		t.Fatalf("conn spans = %d, want %d (sequence %v)", len(spans), clients, snap.Sequence())
	}
	bySpan := make(map[uint64]trace.Record, clients)
	for _, r := range spans {
		if _, dup := bySpan[r.Span]; dup {
			t.Fatalf("span %d recorded twice: finish double-fired", r.Span)
		}
		bySpan[r.Span] = r
		if out := attrStr(t, r, "outcome"); out != "shutdown" {
			t.Fatalf("conn outcome = %q, want shutdown", out)
		}
		if f := attrInt(t, r, "frames"); f == 0 {
			t.Fatal("conn span closed with zero frames under a reading client")
		}
	}
	// Every subscribe event pairs with its own connection span.
	for _, ev := range subs {
		if _, ok := bySpan[ev.Span]; !ok {
			t.Fatalf("subscribe event on span %d has no conn span", ev.Span)
		}
	}
}

// TestHandshakeFailureTrace: a client that subscribes to a channel
// outside the program closes with outcome handshake_failed and the
// precise rejection reason.
func TestHandshakeFailureTrace(t *testing.T) {
	_, p := testProgram(t)
	tr := trace.New(trace.Config{Capacity: 64})
	srv, err := Serve("127.0.0.1:0", ServerConfig{
		Program: p, TimeScale: 0.01,
		Metrics: obs.NewRegistry(),
		Tracer:  tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := wire.ReadFrame(conn); err != nil { // hello
		t.Fatal(err)
	}
	if err := wire.WriteJSON(conn, wire.MsgSubscribe, wire.Subscribe{Channel: 99}); err != nil {
		t.Fatal(err)
	}
	// The server rejects and closes; wait for the connection span to
	// land in the ring.
	deadline := time.Now().Add(5 * time.Second)
	var conns []trace.Record
	for len(conns) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no netcast_conn span recorded (sequence %v)", tr.Snapshot().Sequence())
		}
		time.Sleep(time.Millisecond)
		conns = tr.Snapshot().Named("netcast_conn")
	}
	if out := attrStr(t, conns[0], "outcome"); out != "handshake_failed" {
		t.Fatalf("outcome = %q, want handshake_failed", out)
	}
	if reason := attrStr(t, conns[0], "reason"); reason != "bad_channel" {
		t.Fatalf("reason = %q, want bad_channel", reason)
	}
}

// gatedConn is an in-process subscriber connection whose first Write
// blocks until Close, then succeeds, as does every later Write: a
// write the server started before shutdown that completes only after
// dropAll closed the connection.
type gatedConn struct {
	nullConn
	entered, closed chan struct{}
	enterOnce       sync.Once
	closeOnce       sync.Once
}

func newGatedConn() *gatedConn {
	return &gatedConn{entered: make(chan struct{}), closed: make(chan struct{})}
}

func (c *gatedConn) Write(b []byte) (int, error) {
	c.enterOnce.Do(func() { close(c.entered) })
	<-c.closed
	return len(b), nil
}

func (c *gatedConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

func (c *gatedConn) RemoteAddr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// TestShutdownCountsInFlightWrite closes the server while a
// subscriber's write is blocked and releases the write only when
// dropAll closes the connection: the connection span must still end
// with outcome shutdown and count the frames of that write.
func TestShutdownCountsInFlightWrite(t *testing.T) {
	_, p := testProgram(t)
	tr := trace.New(trace.Config{Capacity: 64})
	srv, err := Serve("127.0.0.1:0", ServerConfig{
		Program: p, TimeScale: 0.005,
		Metrics: obs.NewRegistry(),
		Tracer:  tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	conn := newGatedConn()
	if err := srv.Attach(conn, 0); err != nil {
		t.Fatal(err)
	}
	<-conn.entered
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	spans := tr.Snapshot().Named("netcast_conn")
	if len(spans) != 1 {
		t.Fatalf("conn spans = %d, want 1", len(spans))
	}
	if out := attrStr(t, spans[0], "outcome"); out != "shutdown" {
		t.Fatalf("conn outcome = %q, want shutdown", out)
	}
	if f := attrInt(t, spans[0], "frames"); f < 1 {
		t.Fatalf("conn span frames = %d, want the blocked write's frames (≥ 1)", f)
	}
}
