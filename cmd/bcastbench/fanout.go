package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"diversecast/internal/broadcast"
	"diversecast/internal/core"
	"diversecast/internal/netcast"
	"diversecast/internal/obs"
	"diversecast/internal/obs/trace"
	"diversecast/internal/wire"
)

// The NetcastFanout family measures the fan-out rearchitecture the way
// it will be judged in production: whole-process CPU per delivered
// frame, at subscriber counts per core. Three cells:
//
//   - queue_tcp: the legacy per-subscriber-queue path over real
//     loopback TCP — the baseline point. Every frame costs two write
//     syscalls per subscriber plus one channel send from the caster.
//   - ring_tcp: the shared-ring path over the same sockets and the
//     same frame-rate-heavy program, at a much higher subscriber
//     count. Batched vectored writes coalesce a lagging subscriber's
//     backlog into single writev calls, so per-delivery cost falls as
//     load rises.
//   - ring_100k: the headline scale point. Real TCP cannot hold 100k
//     sockets under this container's descriptor limit, so the mass is
//     in-process sink connections registered through Server.Attach —
//     they exercise the full ring/writer path minus the kernel socket
//     — while a handful of genuine TCP clients ride along verifying
//     payload byte-parity, and the metrics/trace deltas prove the
//     window saw no resync or drop storm.
//
// Each cell reports subscribers-per-core (subscribers divided by the
// cores the whole process consumed during the measurement window);
// the ring_tcp / queue_tcp ratio is the tracked gain, gated ≥ 10× in
// full runs.

// fanoutProgram builds a one-channel program of n unit-size items:
// frame-rate-heavy and byte-light, so per-frame overheads (syscalls,
// wakeups, channel sends) dominate over payload memcpy — exactly the
// costs the ring rearchitecture removes.
func fanoutProgram(n int) (*broadcast.Program, error) {
	items := make([]core.Item, n)
	for i := range items {
		items[i] = core.Item{ID: i + 1, Freq: 1 / float64(n), Size: 1}
	}
	db := core.MustNewDatabase(items)
	a, err := core.NewDRPCDS().Allocate(db, 1)
	if err != nil {
		return nil, err
	}
	return broadcast.Build(a, 10, broadcast.ByPosition)
}

// cpuSeconds reads the whole process's consumed CPU (user + system).
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6 +
		float64(ru.Stime.Sec) + float64(ru.Stime.Usec)/1e6, nil
}

// seqRange is the half-open broadcast-sequence range [lo, hi).
type seqRange struct{ lo, hi int64 }

func overlap(a, b seqRange) int64 {
	return max(0, min(a.hi, b.hi)-max(a.lo, b.lo))
}

// windowDeliveries is the delivery accounting behind delivery_ratio.
// Frames are numbered by the channel's broadcast sequence (the n-th
// frame the caster published has sequence n-1). A subscriber that
// attached at sequence first and has advanced to next — every frame
// of [first, next) handed to it except the skipped ranges — holds the
// frames of the window [lo, hi) that lie in [first, next) outside any
// skip. It is owed the frames of [max(lo, first), hi).
//
// Only frames broadcast inside the window count on either side, so
// got ≤ want by construction: a frame broadcast before the window and
// written inside it — the backlog a lagging subscriber drains after
// the window opens — is not a delivery of the window.
func windowDeliveries(first, next int64, skips []seqRange, lo, hi int64) (got, want int64) {
	start := max(lo, first)
	if hi <= start {
		return 0, 0
	}
	want = hi - start
	got = overlap(seqRange{first, next}, seqRange{start, hi})
	for _, sk := range skips {
		got -= overlap(sk, seqRange{start, hi})
	}
	return max(got, 0), want
}

// frameTally is one subscriber's delivery record: the broadcast
// sequence it attached at, how far it has advanced since (frames
// received plus frames a MsgResync reported skipped), and the skipped
// ranges.
//
// first is read from the channel's broadcast counter right after
// Attach returns. The counter is bumped before a frame is handed to
// subscribers, so first is never below the sequence the subscriber
// started from; it is above it only by the frames published during
// the Attach call.
type frameTally struct {
	first     int64 // set by the attaching goroutine before the window
	advanced  atomic.Int64
	malformed atomic.Int64

	mu    sync.Mutex
	skips []seqRange // lapped ranges, relative to first
}

// observe records one received frame given its type byte and body.
func (t *frameTally) observe(typ wire.MsgType, body []byte) {
	if typ != wire.MsgResync {
		t.advanced.Add(1)
		return
	}
	var rs wire.Resync
	if err := json.Unmarshal(body, &rs); err != nil {
		t.malformed.Add(1)
		return
	}
	n := t.advanced.Load()
	t.mu.Lock()
	t.skips = append(t.skips, seqRange{n, n + int64(rs.Skipped)})
	t.mu.Unlock()
	t.advanced.Add(int64(rs.Skipped))
}

// window reports how many frames of the broadcast-sequence window
// [lo, hi) the subscriber received (got) and was owed (want).
func (t *frameTally) window(lo, hi int64) (got, want int64) {
	t.mu.Lock()
	skips := make([]seqRange, len(t.skips))
	for i, sk := range t.skips {
		skips[i] = seqRange{t.first + sk.lo, t.first + sk.hi}
	}
	t.mu.Unlock()
	return windowDeliveries(t.first, t.first+t.advanced.Load(), skips, lo, hi)
}

// benchSink is an in-process net.Conn that swallows writes: it drives
// the full subscriber write path (ring claim, batching, accounting)
// without a kernel socket, which is what lets one process host 100k
// subscribers under a 20k descriptor limit. The vectored write falls
// back to one Write per buffer on a non-socket conn and every buffer
// is one wire frame, so a Write is a frame.
type benchSink struct {
	frameTally
	closed atomic.Bool
}

func (s *benchSink) Write(p []byte) (int, error) {
	if s.closed.Load() {
		return 0, net.ErrClosed
	}
	if len(p) < 5 || int(binary.BigEndian.Uint32(p[:4])) != len(p)-4 {
		s.malformed.Add(1)
		return len(p), nil
	}
	s.observe(wire.MsgType(p[4]), p[5:])
	return len(p), nil
}

func (s *benchSink) Read(p []byte) (int, error) { return 0, io.EOF }

func (s *benchSink) Close() error {
	s.closed.Store(true)
	return nil
}

func (s *benchSink) LocalAddr() net.Addr              { return sinkAddr{} }
func (s *benchSink) RemoteAddr() net.Addr             { return sinkAddr{} }
func (s *benchSink) SetDeadline(time.Time) error      { return nil }
func (s *benchSink) SetReadDeadline(time.Time) error  { return nil }
func (s *benchSink) SetWriteDeadline(time.Time) error { return nil }

type sinkAddr struct{}

func (sinkAddr) Network() string { return "sink" }
func (sinkAddr) String() string  { return "sink" }

// tcpDrain is a subscriber over a real loopback socket pair: the
// server end is attached with Server.Attach, and a goroutine drains
// the client end, walking the frame headers to tally frames and
// skipping the bodies. It spends almost nothing per frame, so the
// cell's CPU measures the server's fan-out cost, not client decoding.
type tcpDrain struct {
	frameTally
	conn net.Conn
}

// drain reads frames until the connection closes. The error that ends
// it is the bench closing the connection, not a failure.
func (d *tcpDrain) drain() {
	r := bufio.NewReaderSize(d.conn, 64<<10)
	var hdr [5]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		n := int(binary.BigEndian.Uint32(hdr[:4])) - 1
		if n < 0 || n >= wire.MaxFrameSize {
			d.malformed.Add(1)
			return
		}
		typ := wire.MsgType(hdr[4])
		if typ != wire.MsgResync {
			if _, err := r.Discard(n); err != nil {
				return
			}
			d.observe(typ, nil)
			continue
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return
		}
		d.observe(typ, body)
	}
}

// fanoutCell is one cell's measured outcome.
type fanoutCell struct {
	subscribers    int
	cores          float64
	subsPerCore    float64
	deliveries     int64 // frames written during the window (server count)
	broadcastDelta int64
	backpressure   int64 // resyncs + lag drops + queue drops during the window
	traceStorm     int   // resync/queue-drop events visible in the trace ring
	parityFailures int64
	receptions     int64
	malformed      int64
	// deliveryRatio is the window accounting of windowDeliveries over
	// the drains and sinks: frames of the window received ÷ frames of
	// the window owed. The verifiers are checked by payload parity.
	deliveryRatio float64
}

// runFanoutCell starts a server in the given mode, attaches tcpSubs
// loopback TCP drains, sinkSubs in-process sinks and a few verifying
// clients, lets the broadcast settle, then measures process CPU and
// metric deltas over the window.
func runFanoutCell(rep *report, name string, cfg netcast.ServerConfig, tcpSubs, sinkSubs, verifiers int, window time.Duration) (*fanoutCell, error) {
	reg := obs.NewRegistry()
	tr := trace.New(trace.Config{Capacity: 1 << 15})
	cfg.Metrics = reg
	cfg.Tracer = tr
	srv, err := netcast.Serve("127.0.0.1:0", cfg)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	addr := srv.Addr().String()

	var connMu sync.Mutex
	var conns []io.Closer
	defer func() {
		connMu.Lock()
		defer connMu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}()

	bcastCounter := func() int64 {
		return reg.Snapshot().Counter(`netcast_frames_broadcast_total{channel="0"}`)
	}
	var tallies []*frameTally
	var dg sync.WaitGroup // drain goroutines, joined after teardown

	// TCP drains: socket pairs through a bench-owned listener, the
	// server end attached directly so the drain's first sequence can be
	// read right after Attach. Every pair connects before the first
	// attach, while no subscriber loads the scheduler.
	stage := time.Now()
	if tcpSubs > 0 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		drains := make([]*tcpDrain, tcpSubs)
		servers := make([]net.Conn, tcpSubs)
		for i := range drains {
			client, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return nil, fmt.Errorf("%s: dialing drain %d: %w", name, i, err)
			}
			conns = append(conns, client)
			if servers[i], err = ln.Accept(); err != nil {
				return nil, fmt.Errorf("%s: accepting drain %d: %w", name, i, err)
			}
			conns = append(conns, servers[i])
			drains[i] = &tcpDrain{conn: client}
		}
		for i, d := range drains {
			if err := srv.Attach(servers[i], 0); err != nil {
				return nil, fmt.Errorf("%s: attaching drain %d: %w", name, i, err)
			}
			d.first = bcastCounter()
			tallies = append(tallies, &d.frameTally)
			dg.Add(1)
			go func() {
				defer dg.Done()
				d.drain()
			}()
		}
		fmt.Fprintf(os.Stderr, "%s: %d drains connected in %.1fs\n", name, tcpSubs, time.Since(stage).Seconds())
	}

	stage = time.Now()
	for i := 0; i < sinkSubs; i++ {
		sk := &benchSink{}
		if err := srv.Attach(sk, 0); err != nil {
			return nil, fmt.Errorf("%s: attaching sink %d: %w", name, i, err)
		}
		sk.first = bcastCounter()
		tallies = append(tallies, &sk.frameTally)
	}
	if sinkSubs > 0 {
		fmt.Fprintf(os.Stderr, "%s: %d sinks attached in %.1fs\n", name, sinkSubs, time.Since(stage).Seconds())
	}

	// Verifying clients: full protocol receivers checking every
	// reception against the deterministic payload generator.
	var parityFailures, receptions atomic.Int64
	stop := make(chan struct{})
	var vg sync.WaitGroup
	for i := 0; i < verifiers; i++ {
		c, err := netcast.Tune(addr, 0, 30*time.Second)
		if err != nil {
			close(stop)
			return nil, fmt.Errorf("%s: tuning verifier: %w", name, err)
		}
		connMu.Lock()
		conns = append(conns, c) // Client has Close; satisfies the cleanup loop via interface
		connMu.Unlock()
		vg.Add(1)
		go func() {
			defer vg.Done()
			for {
				rec, err := c.NextItem(time.Now().Add(window + 20*time.Second))
				select {
				case <-stop:
					return
				default:
				}
				if err != nil {
					parityFailures.Add(1)
					return
				}
				receptions.Add(1)
				if err := netcast.VerifyPayload(rec); err != nil {
					parityFailures.Add(1)
				}
			}
		}()
	}

	counters := func() (sent, broadcastN, bp int64) {
		snap := reg.Snapshot()
		sent = snap.Counter(`netcast_frames_sent_total{channel="0"}`)
		broadcastN = snap.Counter(`netcast_frames_broadcast_total{channel="0"}`)
		bp = snap.Counter(`netcast_resyncs_total{channel="0"}`) +
			snap.Counter(`netcast_lag_drops_total{channel="0"}`) +
			snap.Counter(`netcast_queue_full_drops_total{channel="0"}`)
		return sent, broadcastN, bp
	}

	time.Sleep(500 * time.Millisecond) // settle: connection churn out of the window
	sent0, bcast0, bp0 := counters()
	cpu0, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	time.Sleep(window)
	cpu1, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(t0)
	sent1, bcast1, bp1 := counters()
	// Grace period: frames of the window still in flight when it closed
	// reach their subscribers before the tallies are read. One frame's
	// fan-out to 100k sinks takes a few hundred milliseconds on two
	// CPUs, so the grace is a full second.
	time.Sleep(time.Second)
	var got, want, malformed int64
	for _, t := range tallies {
		g, w := t.window(bcast0, bcast1)
		got += g
		want += w
		malformed += t.malformed.Load()
	}
	close(stop)
	// Tear down concurrently: a sequential loop would wait out each
	// conn's starved drain goroutine in turn, serializing thousands of
	// scheduler round-trips.
	connMu.Lock()
	var cg sync.WaitGroup
	for _, c := range conns {
		cg.Add(1)
		go func(c io.Closer) {
			defer cg.Done()
			c.Close()
		}(c)
	}
	conns = nil
	connMu.Unlock()
	cg.Wait()
	vg.Wait()
	dg.Wait()

	cell := &fanoutCell{
		subscribers:    tcpSubs + sinkSubs + verifiers,
		cores:          (cpu1 - cpu0) / elapsed.Seconds(),
		deliveries:     sent1 - sent0,
		broadcastDelta: bcast1 - bcast0,
		backpressure:   bp1 - bp0,
		parityFailures: parityFailures.Load(),
		receptions:     receptions.Load(),
		malformed:      malformed,
	}
	if cell.cores > 0 {
		cell.subsPerCore = float64(cell.subscribers) / cell.cores
	}
	if want > 0 {
		cell.deliveryRatio = float64(got) / float64(want)
	}
	tsnap := tr.Snapshot()
	cell.traceStorm = len(tsnap.Named("netcast_resync")) + len(tsnap.Named("netcast_queue_drop"))

	nsPerDelivery := 0.0
	if cell.deliveries > 0 {
		nsPerDelivery = (cpu1 - cpu0) * 1e9 / float64(cell.deliveries)
	}
	rep.recordCustom(name, int(cell.deliveries), nsPerDelivery, map[string]float64{
		"subscribers":         float64(cell.subscribers),
		"cores":               cell.cores,
		"subs_per_core":       cell.subsPerCore,
		"deliveries_per_sec":  float64(cell.deliveries) / elapsed.Seconds(),
		"frames_per_sec":      float64(cell.broadcastDelta) / elapsed.Seconds(),
		"delivery_ratio":      cell.deliveryRatio,
		"backpressure_events": float64(cell.backpressure),
		"trace_storm_events":  float64(cell.traceStorm),
		"parity_failures":     float64(cell.parityFailures),
		"malformed_frames":    float64(cell.malformed),
		"verified_receptions": float64(cell.receptions),
	})
	return cell, nil
}

// recordCustom appends a measurement that did not come from
// testing.Benchmark (the fan-out cells run their own timed windows).
func (r *report) recordCustom(name string, iterations int, nsPerOp float64, metrics map[string]float64) {
	r.Results = append(r.Results, benchResult{
		Name: name, Iterations: iterations, NsPerOp: nsPerOp, Metrics: metrics,
	})
	fmt.Fprintf(os.Stderr, "%-48s %12.0f ns/op\n", name, nsPerOp)
}

// netcastFanout runs the three fan-out cells and derives the tracked
// gain and health numbers; run() gates them after the artifact is
// written.
func netcastFanout(rep *report, quick bool) error {
	// Queue subscribers sit well below the legacy path's single-core
	// saturation point (~100 at this frame rate) so the baseline is a
	// healthy, fully-fed deployment. Ring subscribers sit far above it:
	// that is the regime the ring was built for, where subscribers lag
	// a few publishes behind and each wakeup drains a large vectored
	// batch. Both cells must still deliver the whole broadcast
	// (delivery ratio gated at 0.95) for the comparison to hold.
	queueSubs, ringSubs, sinkSubs, verifiers := 64, 1536, 100_000, 4
	tcpWindow, sinkWindow := 4*time.Second, 8*time.Second
	slowScale := 10.0
	if quick {
		queueSubs, ringSubs, sinkSubs, verifiers = 16, 512, 5_000, 2
		tcpWindow, sinkWindow = 1500*time.Millisecond, 2*time.Second
		slowScale = 2.0
	}

	// hot: ~333 slots/s of tiny items — per-frame costs dominate.
	hot, err := fanoutProgram(32)
	if err != nil {
		return err
	}
	// slow: a gentle schedule the 100k cell can sustain on one core.
	slow, err := fanoutProgram(2)
	if err != nil {
		return err
	}

	qc, err := runFanoutCell(rep,
		fmt.Sprintf("NetcastFanout/queue_tcp/subs=%d", queueSubs),
		netcast.ServerConfig{
			Program: hot, TimeScale: 0.03,
			Fanout:           netcast.FanoutQueue,
			SubscriberBuffer: 8192,
			WriteTimeout:     30 * time.Second,
		}, queueSubs, 0, verifiers, tcpWindow)
	if err != nil {
		return err
	}
	rc, err := runFanoutCell(rep,
		fmt.Sprintf("NetcastFanout/ring_tcp/subs=%d", ringSubs),
		netcast.ServerConfig{
			Program: hot, TimeScale: 0.03,
			Fanout:       netcast.FanoutRing,
			RingCapacity: 8192,
			WriteTimeout: 30 * time.Second,
		}, ringSubs, 0, verifiers, tcpWindow)
	if err != nil {
		return err
	}
	big, err := runFanoutCell(rep,
		fmt.Sprintf("NetcastFanout/ring_100k/subs=%d", sinkSubs+verifiers),
		netcast.ServerConfig{
			Program: slow, TimeScale: slowScale,
			Fanout:       netcast.FanoutRing,
			RingCapacity: 4096,
			WriteTimeout: 30 * time.Second,
		}, 0, sinkSubs, verifiers, sinkWindow)
	if err != nil {
		return err
	}

	if qc.subsPerCore > 0 {
		rep.Derived["netcast_fanout_gain_subs_per_core"] = rc.subsPerCore / qc.subsPerCore
	}
	rep.Derived["netcast_fanout_queue_delivery_ratio"] = qc.deliveryRatio
	rep.Derived["netcast_fanout_ring_delivery_ratio"] = rc.deliveryRatio
	rep.Derived["netcast_fanout_parity_failures"] =
		float64(qc.parityFailures + rc.parityFailures + big.parityFailures)
	rep.Derived["netcast_fanout_malformed_frames"] =
		float64(qc.malformed + rc.malformed + big.malformed)
	rep.Derived["netcast_fanout_tcp_backpressure_events"] =
		float64(qc.backpressure + rc.backpressure)
	rep.Derived["netcast_fanout_100k_backpressure_events"] =
		float64(big.backpressure + int64(big.traceStorm))
	rep.Derived["netcast_fanout_100k_delivery_ratio"] = big.deliveryRatio
	return nil
}
