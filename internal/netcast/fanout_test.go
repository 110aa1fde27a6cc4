package netcast

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diversecast/internal/obs"
	"diversecast/internal/obs/trace"
	"diversecast/internal/wire"
)

func TestFanoutConfigValidation(t *testing.T) {
	_, p := testProgram(t)
	nan, inf := math.NaN(), math.Inf(1)
	for name, cfg := range map[string]ServerConfig{
		"RingCapacity 1":        {RingCapacity: 1},
		"negative WriteBatch":   {WriteBatch: -1},
		"negative ResyncLimit":  {ResyncLimit: -1},
		"negative TimeScale":    {TimeScale: -1},
		"NaN TimeScale":         {TimeScale: nan},
		"+Inf TimeScale":        {TimeScale: inf},
		"negative ClientRate":   {ClientRateLimit: -1},
		"NaN ClientRate":        {ClientRateLimit: nan},
		"+Inf ClientRate":       {ClientRateLimit: inf},
		"negative ChannelRate":  {ChannelRateLimit: -1},
		"NaN ChannelRate":       {ChannelRateLimit: nan},
		"+Inf ChannelRate":      {ChannelRateLimit: inf},
		"negative WriteTimeout": {WriteTimeout: -time.Second},
		"negative BytesPerUnit": {BytesPerUnit: -1},
	} {
		cfg.Program = p
		if _, err := cfg.withDefaults(); err == nil {
			t.Errorf("%s should fail validation", name)
		}
	}
}

// TestSubscriberGaugeNeverNegativeUnderChurn is the regression for the
// add/dropAll metric race: subscriber registration and its gauge
// increment used to happen on opposite sides of ca.mu, so a dropAll
// sweeping between them decremented a registration whose increment had
// not landed and the netcast_subscribers gauge went transiently
// negative. With the metrics moved under the lock the gauge can never
// be negative, which a concurrent sampler verifies while subscribers
// churn against dropAll. Run under -race.
func TestSubscriberGaugeNeverNegativeUnderChurn(t *testing.T) {
	_, p := testProgram(t)
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		reg := obs.NewRegistry()
		cfg, err := ServerConfig{Program: p, TimeScale: 0.01, Metrics: reg}.withDefaults()
		if err != nil {
			t.Fatal(err)
		}
		s := newServer(cfg, nil)
		ca := newCaster(s, 0, time.Now())

		var sawNegative atomic.Bool
		samplerStop := make(chan struct{})
		samplerDone := make(chan struct{})
		go func() {
			defer close(samplerDone)
			for {
				select {
				case <-samplerStop:
					return
				default:
				}
				if reg.Snapshot().Gauge(`netcast_subscribers{channel="0"}`) < 0 {
					sawNegative.Store(true)
				}
			}
		}()

		var mu sync.Mutex
		var peers []net.Conn
		var adders sync.WaitGroup
		for w := 0; w < 4; w++ {
			adders.Add(1)
			go func() {
				defer adders.Done()
				for i := 0; i < 64; i++ {
					server, client := net.Pipe()
					if !ca.add(server, trace.Span{}, -1) {
						server.Close()
						client.Close()
						return
					}
					mu.Lock()
					peers = append(peers, client)
					mu.Unlock()
				}
			}()
		}
		time.Sleep(time.Duration(round) * time.Millisecond)
		ca.dropAll()
		adders.Wait()
		// Late registrations may have slipped in between dropAll and
		// the adders noticing; sweep again so every write loop stops.
		ca.dropAll()
		s.wg.Wait()
		close(samplerStop)
		<-samplerDone
		mu.Lock()
		for _, c := range peers {
			c.Close()
		}
		mu.Unlock()

		if sawNegative.Load() {
			t.Fatalf("round %d: netcast_subscribers gauge went negative during churn", round)
		}
		snap := reg.Snapshot()
		if got := snap.Gauge(`netcast_subscribers{channel="0"}`); got != 0 {
			t.Fatalf("round %d: gauge = %d after dropAll, want 0", round, got)
		}
		added := snap.Counter(`netcast_subscribers_added_total{channel="0"}`)
		dropped := snap.Counter(`netcast_subscribers_dropped_total{channel="0"}`)
		if added != dropped {
			t.Fatalf("round %d: added %d != dropped %d after full churn", round, added, dropped)
		}
	}
}

// TestStallCatchUpSkipsCycles is the regression for the stall-replay
// bug: a caster whose schedule is several full cycles behind wall
// clock (epoch in the past, as after a GC pause or suspended VM) used
// to replay every stale slot back-to-back, blasting frames. Now it
// must skip directly to the current cycle, count the skipped cycles,
// and the first frame a subscriber sees carries the caught-up cycle
// number — never cycle 0.
func TestStallCatchUpSkipsCycles(t *testing.T) {
	_, p := testProgram(t)
	reg := obs.NewRegistry()
	const scale = 0.01
	cfg, err := ServerConfig{Program: p, TimeScale: scale, Metrics: reg}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(cfg, nil)
	const behindCycles = 5
	cycleLen := p.Channels[0].CycleLength
	stalledEpoch := time.Now().Add(-time.Duration(behindCycles * cycleLen * scale * float64(time.Second)))
	ca := newCaster(s, 0, stalledEpoch)

	server, client := net.Pipe()
	defer client.Close()
	if !ca.add(server, trace.Span{}, -1) {
		t.Fatal("caster refused the subscriber")
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		ca.run()
	}()

	if err := client.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	firstCycle := -1
	for firstCycle < 0 {
		f, err := wire.ReadFrame(client)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.MsgItemBegin {
			continue
		}
		var begin wire.ItemBegin
		if err := wire.DecodeJSON(f, &begin); err != nil {
			t.Fatal(err)
		}
		firstCycle = begin.Cycle
	}
	// Timing slop can push the skip to behindCycles±1; what must never
	// happen is a replay from cycle 0.
	if firstCycle < behindCycles-1 {
		t.Fatalf("first broadcast cycle = %d after a %d-cycle stall, want ≥ %d (stale replay)",
			firstCycle, behindCycles, behindCycles-1)
	}
	if got := reg.Snapshot().Counter(`netcast_cycles_skipped_total{channel="0"}`); got < behindCycles-1 {
		t.Fatalf("cycles skipped = %d, want ≥ %d", got, behindCycles-1)
	}

	close(s.closed)
	ca.dropAll()
	s.wg.Wait()
}

// TestPermanentAcceptFailureSurfaced is the regression for the silent
// accept-loop death: a permanent accept error must close Done and be
// reported by Err so an operator process can notice and exit, instead
// of the server "running" forever with a dead listener.
func TestPermanentAcceptFailureSurfaced(t *testing.T) {
	s, _, _ := scriptedServer(t, []error{tempErr{}, errPermanent})
	go s.acceptLoop()
	select {
	case <-s.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done not closed after a permanent accept failure")
	}
	err := s.Err()
	if err == nil {
		t.Fatal("Err() = nil after a permanent accept failure")
	}
	if !errors.Is(err, errPermanent) {
		t.Fatalf("Err() = %v, want wrapped %v", err, errPermanent)
	}
}

// TestCleanCloseLeavesNilErr: the same Done channel closes on a clean
// shutdown, but with no error — callers distinguish the two by Err.
func TestCleanCloseLeavesNilErr(t *testing.T) {
	_, p := testProgram(t)
	srv, err := Serve("127.0.0.1:0", ServerConfig{Program: p, TimeScale: 0.01, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.Done():
		t.Fatal("Done closed on a healthy server")
	default:
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-srv.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("Done not closed after Close")
	}
	if err := srv.Err(); err != nil {
		t.Fatalf("Err() = %v after a clean Close, want nil", err)
	}
}

// TestWrittenVsBroadcastAccounting is the regression for the
// enqueued-as-sent metric lie: netcast_frames_sent_total /
// netcast_bytes_sent_total must count what the write loop actually put
// on a socket, while the publish-side flow shows up in the broadcast
// counters. A peer that never reads keeps the sent counters at zero no
// matter how much was published.
func TestWrittenVsBroadcastAccounting(t *testing.T) {
	_, p := testProgram(t)
	reg := obs.NewRegistry()
	cfg, err := ServerConfig{
		Program: p, TimeScale: 0.01, Metrics: reg,
		WriteTimeout: 10 * time.Second,
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(cfg, nil)
	ca := newCaster(s, 0, time.Now())
	server, client := net.Pipe()
	if !ca.add(server, trace.Span{}, -1) {
		t.Fatal("caster refused the subscriber")
	}
	frame, err := wire.EncodeFrame(wire.MsgItemChunk, []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	ca.publish(frame)
	ca.publish(frame)

	snap := reg.Snapshot()
	if got := snap.Counter(`netcast_frames_broadcast_total{channel="0"}`); got != 2 {
		t.Fatalf("frames broadcast = %d, want 2", got)
	}
	if got := snap.Counter(`netcast_bytes_broadcast_total{channel="0"}`); got != int64(2*len(frame)) {
		t.Fatalf("bytes broadcast = %d, want %d", got, 2*len(frame))
	}
	// The peer never read a byte: nothing was written, so nothing may
	// be counted as sent (the old code counted both frames here).
	if got := snap.Counter(`netcast_frames_sent_total{channel="0"}`); got != 0 {
		t.Fatalf("frames sent = %d on an unread connection, want 0", got)
	}
	if got := snap.Counter(`netcast_bytes_sent_total{channel="0"}`); got != 0 {
		t.Fatalf("bytes sent = %d on an unread connection, want 0", got)
	}

	client.Close()
	ca.dropAll()
	s.wg.Wait()
}

// captureCycleBytes tunes a raw protocol client to channel and records
// the exact byte stream of broadcast cycle wantCycle: from the first
// ItemBegin carrying that cycle number up to (not including) the first
// ItemBegin of the next cycle.
func captureCycleBytes(t *testing.T, addr string, channel, wantCycle int) []byte {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(conn)
	if err != nil || f.Type != wire.MsgHello {
		t.Fatalf("hello: frame %v, err %v", f.Type, err)
	}
	if err := wire.WriteJSON(conn, wire.MsgSubscribe, wire.Subscribe{Channel: channel}); err != nil {
		t.Fatal(err)
	}
	// Tee every consumed byte into raw; ReadFrame reads exactly one
	// frame (no readahead), so raw.Len() is a frame boundary between
	// calls.
	var raw bytes.Buffer
	tee := io.TeeReader(conn, &raw)
	start := -1
	for {
		mark := raw.Len()
		f, err := wire.ReadFrame(tee)
		if err != nil {
			t.Fatalf("reading broadcast: %v", err)
		}
		if f.Type == wire.MsgResync {
			t.Fatal("resync during parity capture: the reader fell behind")
		}
		if f.Type != wire.MsgItemBegin {
			continue
		}
		var begin wire.ItemBegin
		if err := wire.DecodeJSON(f, &begin); err != nil {
			t.Fatal(err)
		}
		if begin.Cycle == wantCycle && start < 0 {
			start = mark
		}
		if begin.Cycle > wantCycle {
			if start < 0 {
				t.Fatalf("cycle %d flew by without being observed", wantCycle)
			}
			return append([]byte(nil), raw.Bytes()[start:mark]...)
		}
	}
}

// TestRingWireParity is the golden-bytes test of the fan-out: one full
// recorded cycle delivered through the shared-ring server must equal,
// byte for byte, an independent wire.WriteFrame rendering of the
// program — the frames the ring shares across subscribers and cycles
// are exactly what a per-frame streaming writer would have sent.
func TestRingWireParity(t *testing.T) {
	_, p := testProgram(t)
	const wantCycle = 1

	srv, err := Serve("127.0.0.1:0", ServerConfig{
		Program: p, TimeScale: 0.02,
		Metrics: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ringBytes := captureCycleBytes(t, srv.Addr().String(), 0, wantCycle)

	// Independent oracle: render the cycle with the streaming frame
	// writer, straight from the program.
	var want bytes.Buffer
	bytesPerUnit := 64 // config default
	for _, slot := range p.Channels[0].Slots {
		payload := Payload(slot.ItemID, PayloadLen(slot.Size, bytesPerUnit))
		body, err := json.Marshal(wire.ItemBegin{
			Channel: 0, Pos: slot.Pos, ItemID: slot.ItemID, Size: slot.Size,
			PayloadLen: len(payload), Cycle: wantCycle,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(&want, wire.MsgItemBegin, body); err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(payload); off += chunkSize {
			end := off + chunkSize
			if end > len(payload) {
				end = len(payload)
			}
			if err := wire.WriteFrame(&want, wire.MsgItemChunk, payload[off:end]); err != nil {
				t.Fatal(err)
			}
		}
		body, err = json.Marshal(wire.ItemEnd{
			Channel: 0, Pos: slot.Pos, ItemID: slot.ItemID, Cycle: wantCycle,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteFrame(&want, wire.MsgItemEnd, body); err != nil {
			t.Fatal(err)
		}
	}

	if !bytes.Equal(ringBytes, want.Bytes()) {
		t.Fatalf("ring delivery differs from the wire.WriteFrame rendering: %d vs %d bytes",
			len(ringBytes), want.Len())
	}
}

// TestLagResyncBeforeDrop drives the backpressure tiers
// deterministically over a net.Pipe and proves the ordering from the
// trace ring: a lagging subscriber is first resynchronized (resync
// events, MsgResync frames on the wire), and only after exhausting the
// resync budget is it dropped with outcome "lagged". The trace must
// replay the connection's whole lifecycle on its one span:
// subscribe → resync → resync → conn(outcome: lagged).
func TestLagResyncBeforeDrop(t *testing.T) {
	_, p := testProgram(t)
	reg := obs.NewRegistry()
	tr := trace.New(trace.Config{Capacity: 128})
	cfg, err := ServerConfig{
		Program: p, TimeScale: 0.01,
		Metrics:      reg,
		Tracer:       tr,
		RingCapacity: 8,
		WriteBatch:   4,
		ResyncLimit:  2,
		WriteTimeout: 10 * time.Second,
	}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(cfg, nil)
	ca := newCaster(s, 0, time.Now())
	server, client := net.Pipe()
	defer client.Close()
	sp := tr.Start(spanNetcastConn, trace.Str("peer", "pipe"))
	if !ca.add(server, sp, -1) {
		t.Fatal("caster refused the subscriber")
	}
	if err := client.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}

	// Each round publishes capacity+2 frames in one atomic batch while
	// the reader holds off: whenever the write loop next claims, it
	// finds itself lapped. Rounds 1 and 2 must produce MsgResync on the
	// wire (tier 1); round 3 exceeds ResyncLimit=2 and must drop (tier
	// 2).
	burst := testFrames(0, cfg.RingCapacity+2)
	for round := 1; round <= 2; round++ {
		ca.publish(burst...)
		f, err := wire.ReadFrame(client)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if f.Type != wire.MsgResync {
			t.Fatalf("round %d: frame %s, want resync", round, f.Type)
		}
		var rs wire.Resync
		if err := wire.DecodeJSON(f, &rs); err != nil {
			t.Fatal(err)
		}
		if rs.Channel != 0 || rs.Skipped != uint64(cfg.RingCapacity+2) {
			t.Fatalf("round %d: resync %+v", round, rs)
		}
	}
	ca.publish(burst...)
	if f, err := wire.ReadFrame(client); err == nil {
		t.Fatalf("read frame %s after the resync budget was exhausted, want disconnect", f.Type)
	}
	s.wg.Wait()

	snap := reg.Snapshot()
	if got := snap.Counter(`netcast_resyncs_total{channel="0"}`); got != 2 {
		t.Fatalf("resyncs = %d, want 2", got)
	}
	if got := snap.Counter(`netcast_lag_drops_total{channel="0"}`); got != 1 {
		t.Fatalf("lag drops = %d, want 1", got)
	}

	// The trace ring is the ordering witness: exactly one subscribe
	// event, then both resync events, then the span end — every record
	// on the one connection span — and the span closes with the tier-2
	// outcome.
	tsnap := tr.Snapshot()
	subIdx, connIdx := -1, -1
	var resyncIdx []int
	for i, r := range tsnap.Records {
		if r.Span != sp.ID() {
			t.Fatalf("record %s on span %d, want %d (sequence %v)", r.Name, r.Span, sp.ID(), tsnap.Sequence())
		}
		switch r.Name {
		case eventNetcastSubscribe:
			if subIdx >= 0 {
				t.Fatalf("subscribe recorded twice (sequence %v)", tsnap.Sequence())
			}
			subIdx = i
			if ch := attrInt(t, r, "channel"); ch != 0 {
				t.Fatalf("subscribe channel = %d, want 0", ch)
			}
		case eventNetcastResync:
			resyncIdx = append(resyncIdx, i)
		case spanNetcastConn:
			if connIdx >= 0 {
				t.Fatalf("conn span recorded twice: finish double-fired (sequence %v)", tsnap.Sequence())
			}
			connIdx = i
		}
	}
	if subIdx < 0 {
		t.Fatalf("no subscribe event (sequence %v)", tsnap.Sequence())
	}
	if len(resyncIdx) != 2 {
		t.Fatalf("resync events = %d, want 2 (sequence %v)", len(resyncIdx), tsnap.Sequence())
	}
	if connIdx < 0 {
		t.Fatalf("no conn span record (sequence %v)", tsnap.Sequence())
	}
	for _, i := range resyncIdx {
		if i <= subIdx || i >= connIdx {
			t.Fatalf("resync at ring index %d is not between subscribe %d and the drop at %d (sequence %v)",
				i, subIdx, connIdx, tsnap.Sequence())
		}
	}
	// setOutcome is first-caller-wins: the lagged outcome must not be
	// overwritten by the disconnect path that runs as the loop exits.
	if out := attrStr(t, tsnap.Records[connIdx], "outcome"); out != "lagged" {
		t.Fatalf("conn outcome = %q, want lagged", out)
	}
}

// TestAttachDeliversBroadcast covers the handshake-free registration
// path used by in-process harnesses: an attached pipe receives the
// same frame stream a tuned TCP client would, and attachment is
// refused after shutdown.
func TestAttachDeliversBroadcast(t *testing.T) {
	_, p := testProgram(t)
	srv, err := Serve("127.0.0.1:0", ServerConfig{Program: p, TimeScale: 0.01, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if err := srv.Attach(nil, 99); err == nil {
		t.Fatal("attach to channel 99 should fail")
	}

	server, client := net.Pipe()
	defer client.Close()
	if err := srv.Attach(server, 0); err != nil {
		t.Fatal(err)
	}
	if err := client.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for {
		f, err := wire.ReadFrame(client)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wire.MsgItemBegin {
			continue
		}
		var begin wire.ItemBegin
		if err := wire.DecodeJSON(f, &begin); err != nil {
			t.Fatal(err)
		}
		if begin.Channel != 0 {
			t.Fatalf("attached subscriber got channel %d frames", begin.Channel)
		}
		break
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	server2, client2 := net.Pipe()
	defer client2.Close()
	defer server2.Close()
	if err := srv.Attach(server2, 0); err == nil {
		t.Fatal("attach after Close should fail")
	}
}

// TestClientRateLimitThrottles: a per-client rate limit well below the
// offered broadcast rate must slow delivery without corrupting the
// stream — the client still verifies complete items (possibly after
// server-side resyncs).
func TestClientRateLimitThrottles(t *testing.T) {
	_, p := testProgram(t)
	srv, err := Serve("127.0.0.1:0", ServerConfig{
		Program: p, TimeScale: 0.01,
		Metrics:         obs.NewRegistry(),
		ClientRateLimit: 64 << 10, // 64 KiB/s: far below the offered rate at this scale
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Tune(srv.Addr().String(), 0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec, err := c.NextItem(time.Now().Add(10 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPayload(rec); err != nil {
		t.Fatal(err)
	}
}
