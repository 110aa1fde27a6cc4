// Package netcast executes a broadcast program over real TCP: the
// server plays every channel's cyclic schedule on the wire (paced to
// the configured bandwidth and time scale) to all subscribed clients,
// and the client tunes to a channel and waits for items — the same
// probe/download lifecycle the paper's analytical model describes,
// but with wall-clock time and real sockets.
//
// The fan-out hot path is built for massive subscriber counts: each
// channel's caster encodes every frame once and appends it to a shared
// fixed-capacity frame ring (see frameRing); each subscriber holds
// only a cursor into that ring and drains its backlog with batched
// vectored writes (net.Buffers / writev). Backpressure is tiered: a
// subscriber lapped by the ring is resynchronized from the head (a
// MsgResync frame announces the gap), and only a subscriber that
// keeps getting lapped is dropped. Per-client and per-channel token
// buckets bound egress.
package netcast

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"diversecast/internal/broadcast"
	"diversecast/internal/obs"
	"diversecast/internal/obs/costmon"
	"diversecast/internal/obs/trace"
	"diversecast/internal/wire"
)

// Trace span and event names emitted by the server. Snake_case per
// the obsnames convention; constants so the analyzer can see them.
const (
	spanNetcastConn           = "netcast_conn"
	eventNetcastSubscribe     = "netcast_subscribe"
	eventNetcastAcceptRetry   = "netcast_accept_retry"
	eventNetcastResync        = "netcast_resync"
	eventNetcastCyclesSkipped = "netcast_cycles_skipped"
)

// ServerConfig parameterizes a broadcast server.
type ServerConfig struct {
	// Program is the broadcast program to execute (required).
	Program *broadcast.Program
	// TimeScale converts virtual program seconds to real seconds;
	// 0.001 plays a 10-second cycle in 10ms. Default 1.
	TimeScale float64
	// BytesPerUnit is the payload bytes transmitted per size unit
	// (min 1 byte per item). Default 64.
	BytesPerUnit int
	// RingCapacity is the per-channel frame ring size: a subscriber
	// more than this many frames behind is lapped and resynchronized
	// from the head. It bounds per-channel frame retention, so it
	// should comfortably exceed the largest one-slot burst (item
	// payload / 4KiB chunks). Default 1024.
	RingCapacity int
	// WriteBatch caps the frames coalesced into one vectored write
	// per subscriber wakeup. Default 128.
	WriteBatch int
	// ResyncLimit is the tier-2 threshold: a subscriber lapped this
	// many consecutive times (without draining a full ring between
	// laps) is dropped instead of resynchronized again. Default 3.
	ResyncLimit int
	// ClientRateLimit caps each subscriber's egress in bytes/second
	// (frame bytes, headers included). 0 means unlimited. A client
	// throttled below the broadcast rate lags into the resync/drop
	// tiers rather than stalling the caster.
	ClientRateLimit float64
	// ChannelRateLimit caps one channel's aggregate egress across all
	// its subscribers in bytes/second. 0 means unlimited.
	ChannelRateLimit float64
	// WriteTimeout bounds a single write (one frame, or one batched
	// vectored write) to a subscriber. Default 5s.
	WriteTimeout time.Duration
	// Metrics receives the server's instrumentation (subscribers,
	// frames, drops, accept errors). Nil uses obs.Default().
	Metrics *obs.Registry
	// Tracer receives one netcast_conn span per client connection
	// (handshake through close, with subscribe/drop/resync events)
	// plus accept-backoff and cycle-skip events. Nil uses
	// trace.Default(), which starts disabled, so an unconfigured
	// server stays probe-free.
	Tracer *trace.Tracer
	// CostMonitor, when set, receives cost-attribution signals: one
	// tune-in per subscriber (with the declared item position when
	// the Subscribe carried one) and one realized first-delivery wait
	// — tune-in to the end of the first complete item transmission,
	// converted to virtual seconds via TimeScale. Nil (the default)
	// keeps the fan-out path free of telemetry beyond a per-batch nil
	// check.
	CostMonitor *costmon.Monitor
}

func (c ServerConfig) withDefaults() (ServerConfig, error) {
	if c.Program == nil {
		return c, errors.New("netcast: config needs a Program")
	}
	if err := c.Program.Validate(); err != nil {
		return c, fmt.Errorf("netcast: %w", err)
	}
	if c.TimeScale == 0 {
		c.TimeScale = 1
	}
	if !finiteNonNeg(c.TimeScale) {
		return c, fmt.Errorf("netcast: TimeScale %v must be positive and finite", c.TimeScale)
	}
	if c.BytesPerUnit == 0 {
		c.BytesPerUnit = 64
	}
	if c.BytesPerUnit < 1 {
		return c, fmt.Errorf("netcast: BytesPerUnit %d", c.BytesPerUnit)
	}
	if c.RingCapacity == 0 {
		c.RingCapacity = 1024
	}
	if c.RingCapacity < 2 {
		return c, fmt.Errorf("netcast: RingCapacity %d", c.RingCapacity)
	}
	if c.WriteBatch == 0 {
		c.WriteBatch = 128
	}
	if c.WriteBatch < 1 {
		return c, fmt.Errorf("netcast: WriteBatch %d", c.WriteBatch)
	}
	if c.ResyncLimit == 0 {
		c.ResyncLimit = 3
	}
	if c.ResyncLimit < 1 {
		return c, fmt.Errorf("netcast: ResyncLimit %d", c.ResyncLimit)
	}
	if !finiteNonNeg(c.ClientRateLimit) {
		return c, fmt.Errorf("netcast: ClientRateLimit %v must be finite and non-negative", c.ClientRateLimit)
	}
	if !finiteNonNeg(c.ChannelRateLimit) {
		return c, fmt.Errorf("netcast: ChannelRateLimit %v must be finite and non-negative", c.ChannelRateLimit)
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.WriteTimeout < 0 {
		return c, fmt.Errorf("netcast: negative WriteTimeout %v", c.WriteTimeout)
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	if c.Tracer == nil {
		c.Tracer = trace.Default()
	}
	return c, nil
}

// finiteNonNeg reports whether x lies in [0, +Inf). NaN fails the
// ordered comparison, so it is rejected too: a NaN TimeScale would put
// every pacing deadline in the past and busy-spin the casters.
func finiteNonNeg(x float64) bool {
	return x >= 0 && !math.IsInf(x, 1)
}

// serverMetrics holds the server-wide counters, resolved once at
// startup so the hot paths pay a single atomic op per event.
type serverMetrics struct {
	handshakeFailures *obs.Counter
	acceptRetries     *obs.Counter
	acceptPermanent   *obs.Counter
}

func newServerMetrics(r *obs.Registry) serverMetrics {
	return serverMetrics{
		handshakeFailures: r.Counter("netcast_handshake_failures_total",
			"client connections that failed or were rejected during handshake"),
		acceptRetries: r.Counter("netcast_accept_retries_total",
			"temporary accept errors retried with backoff"),
		acceptPermanent: r.Counter("netcast_accept_permanent_failures_total",
			"permanent accept errors that terminated the accept loop"),
	}
}

// casterMetrics holds one channel's counters. The sent counters
// account frames and bytes actually written to subscriber sockets in
// the write loops — not enqueued; the broadcast counters account the
// per-channel fan-out input, counted once per frame regardless of how
// many subscribers receive it.
type casterMetrics struct {
	subsAdded       *obs.Counter
	subsDropped     *obs.Counter
	framesSent      *obs.Counter
	bytesSent       *obs.Counter
	framesBroadcast *obs.Counter
	bytesBroadcast  *obs.Counter
	resyncs         *obs.Counter
	lagDrops        *obs.Counter
	cyclesSkipped   *obs.Counter
	subscribers     *obs.Gauge
	ringDepth       *obs.Gauge
	lagFrames       *obs.Histogram
}

func newCasterMetrics(r *obs.Registry, channel, ringCapacity int) casterMetrics {
	ch := strconv.Itoa(channel)
	return casterMetrics{
		subsAdded: r.Counter("netcast_subscribers_added_total",
			"subscribers registered on the channel", "channel", ch),
		subsDropped: r.Counter("netcast_subscribers_dropped_total",
			"subscribers removed (disconnect, lag drop, or shutdown)", "channel", ch),
		framesSent: r.Counter("netcast_frames_sent_total",
			"frames written to subscriber connections", "channel", ch),
		bytesSent: r.Counter("netcast_bytes_sent_total",
			"frame bytes (headers included) written to subscriber connections", "channel", ch),
		framesBroadcast: r.Counter("netcast_frames_broadcast_total",
			"frames published to the channel fan-out, counted once per frame independent of subscriber count", "channel", ch),
		bytesBroadcast: r.Counter("netcast_bytes_broadcast_total",
			"frame bytes published to the channel fan-out, counted once per frame", "channel", ch),
		resyncs: r.Counter("netcast_resyncs_total",
			"subscribers lapped by the frame ring and resumed from the head (tier-1 backpressure)", "channel", ch),
		lagDrops: r.Counter("netcast_lag_drops_total",
			"subscribers dropped after exhausting the resync budget (tier-2 backpressure)", "channel", ch),
		cyclesSkipped: r.Counter("netcast_cycles_skipped_total",
			"broadcast cycles skipped to rejoin the wall-clock schedule after a stall", "channel", ch),
		subscribers: r.Gauge("netcast_subscribers",
			"currently registered subscribers", "channel", ch),
		ringDepth: r.Gauge("netcast_ring_depth",
			"frames currently retained in the channel's shared ring", "channel", ch),
		lagFrames: r.Histogram("netcast_subscriber_lag_frames",
			"subscriber backlog in frames observed at each write-loop drain", 0, float64(ringCapacity), 16, "channel", ch),
	}
}

// Server broadcasts a program to TCP subscribers.
type Server struct {
	cfg     ServerConfig
	ln      net.Listener
	casters []*caster
	metrics serverMetrics

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	// done closes when the accept loop has stopped — after Close, or
	// after a permanent accept failure (then Err is non-nil).
	done     chan struct{}
	doneOnce sync.Once
	errMu    sync.Mutex
	loopErr  error
}

// newServer assembles a Server around an already-validated config and
// listener; Serve and the in-package tests share it so every Server
// has its lifecycle channels.
func newServer(cfg ServerConfig, ln net.Listener) *Server {
	return &Server{
		cfg: cfg, ln: ln,
		closed:  make(chan struct{}),
		done:    make(chan struct{}),
		metrics: newServerMetrics(cfg.Metrics),
	}
}

// Serve starts a broadcast server listening on addr (e.g.
// "127.0.0.1:0"). All channels begin their first cycle immediately.
//
//diverselint:coldpath one-time server startup: caster spawn and listener setup
func Serve(addr string, cfg ServerConfig) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netcast: listen: %w", err)
	}
	s := newServer(cfg, ln)

	epoch := time.Now()
	for c := range cfg.Program.Channels {
		ca := newCaster(s, c, epoch)
		s.casters = append(s.casters, ca)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			ca.run()
		}()
	}

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop()
	}()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Done returns a channel closed when the server has stopped accepting
// connections: after Close, or after a permanent accept failure. In
// the failure case the broadcast keeps running for existing
// subscribers, but no new client can ever join — callers should check
// Err and decide whether that is fatal.
func (s *Server) Done() <-chan struct{} { return s.done }

// Err reports the permanent accept error that terminated the accept
// loop, or nil after a clean Close.
func (s *Server) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.loopErr
}

func (s *Server) setErr(err error) {
	s.errMu.Lock()
	if s.loopErr == nil {
		s.loopErr = err
	}
	s.errMu.Unlock()
}

// Attach registers an already-established connection as a subscriber
// of channel, bypassing the wire handshake: no Hello/Subscribe
// exchange happens, and the peer starts receiving raw broadcast
// frames immediately. In-process harnesses (fan-out benchmarks, fleet
// simulations) use it to attach subscriber counts no socket table
// could hold. On error the connection is NOT closed; the caller keeps
// ownership.
func (s *Server) Attach(conn net.Conn, channel int) error {
	if channel < 0 || channel >= len(s.casters) {
		return fmt.Errorf("netcast: attach channel %d outside [0,%d)", channel, len(s.casters))
	}
	var sp trace.Span
	if s.cfg.Tracer.Enabled() {
		sp = s.cfg.Tracer.Start(spanNetcastConn,
			trace.Str("peer", conn.RemoteAddr().String()))
	}
	if !s.casters[channel].add(conn, sp, -1) {
		if sp.Active() {
			sp.End(trace.Str("outcome", "handshake_failed"), trace.Str("reason", "shutdown"))
		}
		return errors.New("netcast: server is shut down")
	}
	return nil
}

// Close stops the broadcast and is idempotent. When it returns, the
// listener is closed, every subscriber connection has been closed, and
// every server goroutine — casters, the accept loop, in-flight
// handshakes and per-subscriber write loops — has exited. A handshake
// racing with Close can never strand a subscriber: casters refuse
// registrations after shutdown and close the connection instead, so
// Close cannot deadlock waiting on a write loop that nobody will stop.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		err = s.ln.Close()
		for _, ca := range s.casters {
			ca.dropAll()
		}
		s.wg.Wait()
	})
	return err
}

// Accept-error backoff bounds: failed Accept calls (e.g. EMFILE when
// the process is out of descriptors) are retried with doubling delays
// so the loop cannot busy-spin at 100% CPU while the condition lasts.
const (
	acceptBackoffMin = time.Millisecond
	acceptBackoffMax = time.Second
)

//diverselint:coldpath connection admission, off the per-frame path; per-accept spawns and per-retry backoff timers are inherent
func (s *Server) acceptLoop() {
	defer s.doneOnce.Do(func() { close(s.done) })
	backoff := time.Duration(0)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() { //nolint:staticcheck // Temporary marks EMFILE/ECONNABORTED-class errors
				// Transient accept failure (a single aborted connection,
				// or descriptor exhaustion under load): back off rather
				// than spin, and keep the broadcast alive.
				if backoff < acceptBackoffMin {
					backoff = acceptBackoffMin
				} else if backoff *= 2; backoff > acceptBackoffMax {
					backoff = acceptBackoffMax
				}
				s.metrics.acceptRetries.Inc()
				if s.cfg.Tracer.Enabled() {
					s.cfg.Tracer.Event(eventNetcastAcceptRetry,
						trace.Int("backoff_ns", int64(backoff)))
				}
				timer := time.NewTimer(backoff)
				select {
				case <-s.closed:
					timer.Stop()
					return
				case <-timer.C:
				}
				continue
			}
			// Permanent failure: the listener is unusable. Surface it
			// through Err/Done and exit cleanly (existing subscribers
			// keep receiving the broadcast).
			s.metrics.acceptPermanent.Inc()
			s.setErr(fmt.Errorf("netcast: accept: %w", err))
			return
		}
		backoff = 0
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handshake(conn)
		}()
	}
}

// handshake greets the client, reads its subscription and hands the
// connection to the channel's caster. On any failure the connection is
// closed; the broadcast must never block on a misbehaving client.
func (s *Server) handshake(conn net.Conn) {
	// The connection span opens here and ends either in failHandshake
	// (rejected) or in subscriber.endSpan (served); its events replay
	// the lifecycle: handshake → subscribe → frames/drops → close.
	var sp trace.Span
	if s.cfg.Tracer.Enabled() {
		sp = s.cfg.Tracer.Start(spanNetcastConn,
			trace.Str("peer", conn.RemoteAddr().String()))
	}
	deadline := time.Now().Add(s.cfg.WriteTimeout)
	if err := conn.SetDeadline(deadline); err != nil {
		s.failHandshake(conn, sp, "set_deadline")
		return
	}
	hello := wire.Hello{
		K:         s.cfg.Program.K,
		Bandwidth: s.cfg.Program.Bandwidth,
		TimeScale: s.cfg.TimeScale,
	}
	if err := wire.WriteJSON(conn, wire.MsgHello, hello); err != nil {
		s.failHandshake(conn, sp, "hello_write")
		return
	}
	f, err := wire.ReadFrame(conn)
	if err != nil || f.Type != wire.MsgSubscribe {
		s.failHandshake(conn, sp, "subscribe_read")
		return
	}
	var sub wire.Subscribe
	if err := wire.DecodeJSON(f, &sub); err != nil {
		s.failHandshake(conn, sp, "subscribe_decode")
		return
	}
	if sub.Channel < 0 || sub.Channel >= len(s.casters) {
		//diverselint:ignore errdrop best-effort rejection notice: the handshake is already failing and the socket closes immediately after, so there is no recovery if the client never sees it
		_ = wire.WriteJSON(conn, wire.MsgError,
			wire.ErrorBody{Message: fmt.Sprintf("channel %d outside [0,%d)", sub.Channel, len(s.casters))})
		s.failHandshake(conn, sp, "bad_channel")
		return
	}
	// Clear the handshake deadline; the writer applies per-frame
	// deadlines from here on.
	if err := conn.SetDeadline(time.Time{}); err != nil {
		s.failHandshake(conn, sp, "clear_deadline")
		return
	}
	// Resolve the declared item (if any) to its database position for
	// the cost monitor's frequency estimator. Cold path: once per
	// connection, and an unknown ID degrades to the -1 sentinel.
	pos := -1
	if s.cfg.CostMonitor != nil && sub.HasItem {
		pos = s.cfg.CostMonitor.PosOfItem(sub.Item)
	}
	// The caster itself decides — under its lock — whether it is still
	// accepting subscribers. Checking s.closed here instead would race
	// with Close: a registration slipping in after dropAll would leave
	// a write loop nobody stops and deadlock s.wg.Wait().
	if !s.casters[sub.Channel].add(conn, sp, pos) {
		s.failHandshake(conn, sp, "shutdown")
	}
}

// failHandshake records and closes a connection that never became a
// subscriber, ending its span with the rejection reason.
func (s *Server) failHandshake(conn net.Conn, sp trace.Span, reason string) {
	s.metrics.handshakeFailures.Inc()
	if sp.Active() {
		sp.End(trace.Str("outcome", "handshake_failed"), trace.Str("reason", reason))
	}
	conn.Close()
}

// subscriber owns one client connection. Its state is a cursor into
// the channel's shared frame ring plus the backpressure tier
// bookkeeping.
type subscriber struct {
	conn  net.Conn
	done  chan struct{}
	once  sync.Once
	wrTmo time.Duration
	// limit is the per-client egress token bucket (nil = unlimited).
	limit *tokenBucket
	// bufs stages each vectored write for net.Buffers.WriteTo; a
	// field instead of a local so the slice header never escapes to
	// the heap (see writeBatch). Cleared after every write.
	bufs net.Buffers
	// throttleTimer is created on the first throttled write and
	// reused for every later throttle (the writer goroutine is the
	// only user), so steady-state backpressure allocates nothing.
	throttleTimer *time.Timer

	// Cost-attribution state: tunedAt is the registration instant
	// (zero when telemetry is off); sawBegin and delivered drive the
	// first-complete-delivery detection in the write loop — a
	// delivery only counts once a MsgItemBegin has been seen, so a
	// mid-slot joiner's orphaned MsgItemEnd (whose payload it missed)
	// is not mistaken for one. Owned by the subscriber's writer
	// goroutine after registration; no lock guards them.
	tunedAt   time.Time
	sawBegin  bool
	delivered bool

	// cursor is the read position: the sequence number of the next
	// frame this subscriber wants. resyncStreak counts consecutive
	// laps; sentSinceResync clears the streak once the subscriber has
	// proven it can keep pace for a full ring. Owned by the writer
	// goroutine after registration, like the fields above.
	cursor          uint64
	resyncStreak    int
	sentSinceResync int

	// span is the connection's netcast_conn span (inactive when
	// tracing is off); frames counts written frames for its closing
	// attr. outcome is why the connection ended: the first close path
	// writes it under outcomeOnce, and it is read only after
	// outcomeOnce.Do returns.
	span        trace.Span
	frames      atomic.Int64
	outcomeOnce sync.Once
	outcome     string
}

func (sub *subscriber) close() {
	sub.once.Do(func() {
		close(sub.done)
		sub.conn.Close()
	})
}

// setOutcome records why the connection ended; the first caller (lag
// drop, shutdown, or disconnect) determines the outcome.
func (sub *subscriber) setOutcome(outcome string) {
	sub.outcomeOnce.Do(func() { sub.outcome = outcome })
}

// endSpan ends the connection span with the recorded outcome
// ("disconnect" when no other close path recorded one) and the
// written-frame count. Only the writer goroutine calls it, after
// ringLoop has returned, so no write is still in flight: the count
// includes every frame the connection accepted, even when Close ran
// while a write was blocked.
func (sub *subscriber) endSpan() {
	sub.setOutcome("disconnect")
	if sub.span.Active() {
		sub.span.End(trace.Str("outcome", sub.outcome),
			trace.Int("frames", sub.frames.Load()))
	}
}

// throttle sleeps until bucket covers n bytes (or the subscriber is
// closed). A nil bucket admits everything.
func (sub *subscriber) throttle(b *tokenBucket, n int) bool {
	if b == nil {
		return true
	}
	d := b.reserve(n)
	if d <= 0 {
		return true
	}
	if sub.throttleTimer == nil {
		// One timer per subscriber, created the first time the bucket
		// actually forces a sleep; Go 1.23 timer semantics make the
		// bare Reset below safe without draining.
		//diverselint:ignore hotalloc one-time lazy timer construction; every later throttle reuses it via Reset
		sub.throttleTimer = time.NewTimer(d)
	} else {
		sub.throttleTimer.Reset(d)
	}
	select {
	case <-sub.done:
		sub.throttleTimer.Stop()
		return false
	case <-sub.throttleTimer.C:
		return true
	}
}

// writeBatch pushes a batch of pre-encoded frames through the rate
// limiters and onto the socket as one vectored write, then accounts
// the written frames and bytes. It reports false when the subscriber
// should be torn down (write error, timeout, or close).
//
//diverselint:hotpath per-drain vectored write, zero allocations per batch
func (sub *subscriber) writeBatch(ca *caster, frames [][]byte) bool {
	n := 0
	for _, f := range frames {
		n += len(f)
	}
	if !sub.throttle(sub.limit, n) {
		return false
	}
	if !sub.throttle(ca.chanLimit, n) {
		return false
	}
	if err := sub.conn.SetWriteDeadline(time.Now().Add(sub.wrTmo)); err != nil {
		return false
	}
	// Cost attribution, first delivery only: once delivered is set the
	// whole block is a nil check and a bool load per batch — that pair
	// is the entire steady-state telemetry cost on the fan-out drain
	// (priced by the TelemetryOverhead bench family). The scan must
	// run before the vectored write: net.Buffers.WriteTo consumes its
	// elements (nils out fully-written entries in the shared backing
	// array), so afterwards there is nothing left to inspect.
	if ca.mon != nil && !sub.delivered {
		sub.observeDelivery(ca, frames)
	}
	// The vectored write goes through sub.bufs rather than a local
	// net.Buffers: WriteTo takes its receiver by pointer and hands it
	// to an interface method, so a local would escape and cost one
	// heap-allocated slice header per drain. The field lives in the
	// already-heap subscriber; the write loop is its only user.
	sub.bufs = net.Buffers(frames)
	_, err := sub.bufs.WriteTo(sub.conn)
	sub.bufs = nil
	if err != nil {
		return false
	}
	ca.met.framesSent.Add(int64(len(frames)))
	ca.met.bytesSent.Add(int64(n))
	if sub.span.Active() {
		sub.frames.Add(int64(len(frames)))
	}
	return true
}

// observeDelivery scans a written batch for the end of the first
// complete item transmission — a MsgItemEnd after a MsgItemBegin; an
// orphaned end frame from the slot a mid-cycle joiner tuned into does
// not count — and records the realized wait in virtual seconds. Runs
// only until the first delivery is found, i.e. for the first batch or
// two of a subscriber's lifetime.
//
//diverselint:coldpath first-delivery detection runs at most a handful of batches per subscriber, then the delivered flag short-circuits it forever
func (sub *subscriber) observeDelivery(ca *caster, frames [][]byte) {
	for _, f := range frames {
		sub.observeFrame(ca, f)
		if sub.delivered {
			return
		}
	}
}

// observeFrame advances the first-delivery state machine by one
// written frame (see observeDelivery).
//
//diverselint:coldpath shares observeDelivery's bounded lifetime: never called once delivered is set
func (sub *subscriber) observeFrame(ca *caster, f []byte) {
	if len(f) < 5 {
		return
	}
	switch wire.MsgType(f[4]) {
	case wire.MsgItemBegin:
		sub.sawBegin = true
	case wire.MsgItemEnd:
		if !sub.sawBegin {
			return
		}
		sub.delivered = true
		// Realized wall wait, converted to virtual program seconds
		// (real = virtual·TimeScale).
		wait := time.Since(sub.tunedAt).Seconds() / ca.srv.cfg.TimeScale
		ca.mon.RecordWait(ca.channel, wait)
	}
}

// ringLoop drains the channel's shared frame ring onto the socket:
// claim a batch from the cursor, write it with one vectored write,
// repeat; park on the ring's publish signal when drained. The
// backpressure tiers live here: a lapped subscriber is resynchronized
// from the ring head (tier 1) until it exhausts the resync budget and
// is dropped (tier 2).
func (sub *subscriber) ringLoop(ca *caster) {
	defer sub.close()
	scratch := make([][]byte, 0, ca.srv.cfg.WriteBatch)
	for {
		batch, next, lag, skipped, wait := ca.ring.claim(sub.cursor, ca.srv.cfg.WriteBatch, scratch)
		if skipped > 0 {
			if sub.resyncStreak >= ca.srv.cfg.ResyncLimit {
				// Tier 2: the subscriber cannot keep pace even when
				// repeatedly restarted from the head. Cut it loose.
				ca.met.lagDrops.Inc()
				sub.setOutcome("lagged")
				return
			}
			// Tier 1: resume from the head and tell the client how
			// many frames it lost so its receiver resynchronizes.
			sub.resyncStreak++
			sub.sentSinceResync = 0
			ca.met.resyncs.Inc()
			if sub.span.Active() {
				sub.span.Event(eventNetcastResync,
					trace.Int("channel", int64(ca.channel)),
					trace.Int("skipped", int64(skipped)))
			}
			rf, err := wire.EncodeJSON(wire.MsgResync,
				wire.Resync{Channel: ca.channel, Skipped: skipped})
			if err != nil {
				// Unreachable: the body is always marshalable.
				return
			}
			sub.cursor = next
			//diverselint:ignore loopalloc resync frame wrapper is built only when the subscriber was lapped, not per drained frame
			if !sub.writeBatch(ca, [][]byte{rf}) {
				return
			}
			continue
		}
		if len(batch) == 0 {
			select {
			case <-sub.done:
				return
			case <-wait:
			}
			continue
		}
		ca.met.lagFrames.Observe(float64(lag))
		if !sub.writeBatch(ca, batch) {
			return
		}
		sub.cursor = next
		sub.sentSinceResync += len(batch)
		if sub.resyncStreak > 0 && sub.sentSinceResync >= ca.srv.cfg.RingCapacity {
			sub.resyncStreak = 0
		}
	}
}

// caster plays one channel's cycle to its subscriber set.
type caster struct {
	srv     *Server
	channel int
	epoch   time.Time
	met     casterMetrics
	// ring is the shared frame ring. chanLimit is the channel-wide
	// egress bucket (nil when unlimited). mon is the optional cost
	// monitor (nil when telemetry is off).
	ring      *frameRing
	chanLimit *tokenBucket
	mon       *costmon.Monitor

	// mu guards subs and closed. closed is set by dropAll; add
	// refuses registrations after it.
	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool
}

func newCaster(srv *Server, channel int, epoch time.Time) *caster {
	ca := &caster{
		srv: srv, channel: channel, epoch: epoch,
		met:  newCasterMetrics(srv.cfg.Metrics, channel, srv.cfg.RingCapacity),
		ring: newFrameRing(srv.cfg.RingCapacity),
		subs: make(map[*subscriber]struct{}),
		mon:  srv.cfg.CostMonitor,
	}
	if srv.cfg.ChannelRateLimit > 0 {
		ca.chanLimit = newTokenBucket(srv.cfg.ChannelRateLimit, srv.cfg.ChannelRateLimit)
	}
	return ca
}

// add registers a new subscriber connection and starts its write
// loop. It reports false — without taking ownership of conn — when the
// caster has already shut down, so a handshake racing with Close can
// never strand a write-loop goroutine past dropAll. pos is the
// declared item's database position for the cost monitor (-1 when the
// subscriber declared none).
func (ca *caster) add(conn net.Conn, sp trace.Span, pos int) bool {
	sub := &subscriber{
		conn:  conn,
		done:  make(chan struct{}),
		wrTmo: ca.srv.cfg.WriteTimeout,
		span:  sp,
	}
	if ca.mon != nil {
		sub.tunedAt = time.Now()
	}
	if ca.srv.cfg.ClientRateLimit > 0 {
		sub.limit = newTokenBucket(ca.srv.cfg.ClientRateLimit, ca.srv.cfg.ClientRateLimit)
	}
	ca.mu.Lock()
	if ca.closed {
		ca.mu.Unlock()
		return false
	}
	sub.cursor = ca.ring.headSeq()
	ca.subs[sub] = struct{}{}
	// The subscriber metrics move in lockstep with the registration
	// map, under the same lock: a dropAll racing with add must never
	// observe (and decrement) a registration whose increment has not
	// landed, or the gauge goes transiently negative.
	ca.met.subsAdded.Inc()
	ca.met.subscribers.Inc()
	// Taking the wg ticket under the lock closes the Attach-vs-Close
	// window: once dropAll has run, no add can reach here, so Close's
	// wg.Wait cannot race a late Add.
	ca.srv.wg.Add(1)
	ca.mu.Unlock()
	if ca.mon != nil {
		ca.mon.ObserveTuneIn(ca.channel, pos)
	}
	if sp.Active() {
		sp.Event(eventNetcastSubscribe, trace.Int("channel", int64(ca.channel)))
	}
	//diverselint:ignore detrand first-delivery waits are intrinsically wall-clock: sub.tunedAt anchors a realized latency measurement and never feeds a simulated cost
	go func() {
		defer ca.srv.wg.Done()
		sub.ringLoop(ca)
		ca.remove(sub)
	}()
	return true
}

func (ca *caster) remove(sub *subscriber) {
	ca.mu.Lock()
	_, present := ca.subs[sub]
	delete(ca.subs, sub)
	if present {
		ca.met.subsDropped.Inc()
		ca.met.subscribers.Dec()
	}
	ca.mu.Unlock()
	sub.endSpan()
	sub.close()
}

func (ca *caster) dropAll() {
	ca.mu.Lock()
	ca.closed = true
	subs := make([]*subscriber, 0, len(ca.subs))
	for sub := range ca.subs {
		subs = append(subs, sub)
	}
	ca.subs = make(map[*subscriber]struct{})
	// Under the same lock as the registrations they mirror; see add.
	ca.met.subsDropped.Add(int64(len(subs)))
	ca.met.subscribers.Add(-int64(len(subs)))
	ca.mu.Unlock()
	// Record the outcome and close; each writer goroutine ends its own
	// span once its last write has returned and been counted.
	for _, sub := range subs {
		sub.setOutcome("shutdown")
		sub.close()
	}
}

// publish appends one batch of pre-encoded frames to the channel's
// shared ring — O(frames), independent of subscriber count.
func (ca *caster) publish(frames ...[]byte) {
	n := 0
	for _, f := range frames {
		n += len(f)
	}
	ca.met.framesBroadcast.Add(int64(len(frames)))
	ca.met.bytesBroadcast.Add(int64(n))
	ca.ring.publish(frames...)
	ca.met.ringDepth.Set(int64(ca.ring.depth()))
}

// sleepUntil waits for the virtual-time offset (seconds since epoch,
// scaled) or server shutdown, whichever first. It reports false on
// shutdown.
func (ca *caster) sleepUntil(virtualOffset float64) bool {
	target := ca.epoch.Add(time.Duration(virtualOffset * ca.srv.cfg.TimeScale * float64(time.Second)))
	d := time.Until(target)
	if d <= 0 {
		select {
		case <-ca.srv.closed:
			return false
		default:
			return true
		}
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ca.srv.closed:
		return false
	case <-timer.C:
		return true
	}
}

// catchUp is the stall defense: after a pause that left the schedule
// at least one full cycle behind wall-clock (GC pause, suspended VM,
// debugger stop), replaying every stale slot back-to-back would blast
// frames and trigger resync/lag-drop storms. Instead the caster
// skips ahead to the cycle the wall clock says is current, counts the
// skipped cycles, and resumes paced broadcasting there. Intra-cycle
// lag (less than one cycle) still replays fast — a bounded burst.
func (ca *caster) catchUp(cycleStart, cycleLength float64) int {
	virtualNow := time.Since(ca.epoch).Seconds() / ca.srv.cfg.TimeScale
	behind := virtualNow - cycleStart
	if behind < cycleLength {
		return 0
	}
	skip := int(behind / cycleLength)
	ca.met.cyclesSkipped.Add(int64(skip))
	if ca.srv.cfg.Tracer.Enabled() {
		ca.srv.cfg.Tracer.Event(eventNetcastCyclesSkipped,
			trace.Int("channel", int64(ca.channel)),
			trace.Int("skipped", int64(skip)))
	}
	return skip
}

// chunkSize bounds one payload chunk frame.
const chunkSize = 4096

// slotPlan is one slot's cycle-invariant precomputation: the payload
// chunk frames are encoded exactly once per caster lifetime and shared
// by every cycle and every subscriber; only the begin/end envelopes
// (which carry the cycle counter) are re-encoded per cycle.
type slotPlan struct {
	slot       broadcast.Slot
	payloadLen int
	chunks     [][]byte
	// batch is the publish template [begin, chunks...]: slot 0 is
	// rewritten with the cycle's begin envelope each transmission, the
	// chunk tail is shared. The ring copies the frame pointers out of
	// it, so reusing the slice across cycles is safe and the steady
	// state publishes without growing anything.
	batch [][]byte
}

// buildPlans encodes every slot's payload chunks once for the caster's
// lifetime and lays down the per-slot publish templates.
//
//diverselint:coldpath one-time per-caster plan construction; cycles replay the encoded frames
func (ca *caster) buildPlans(ch broadcast.Channel) ([]slotPlan, bool) {
	plans := make([]slotPlan, len(ch.Slots))
	for i, slot := range ch.Slots {
		payload := Payload(slot.ItemID, PayloadLen(slot.Size, ca.srv.cfg.BytesPerUnit))
		chunks := make([][]byte, 0, (len(payload)+chunkSize-1)/chunkSize)
		for off := 0; off < len(payload); off += chunkSize {
			end := off + chunkSize
			if end > len(payload) {
				end = len(payload)
			}
			cf, err := wire.EncodeFrame(wire.MsgItemChunk, payload[off:end])
			if err != nil {
				// Unreachable: chunkSize is far below MaxFrameSize.
				return nil, false
			}
			chunks = append(chunks, cf)
		}
		batch := make([][]byte, 1+len(chunks))
		copy(batch[1:], chunks)
		plans[i] = slotPlan{slot: slot, payloadLen: len(payload), chunks: chunks, batch: batch}
	}
	return plans, true
}

// run plays the cyclic schedule forever (until server close). Pacing
// is anchored to the epoch, so timing does not drift across cycles.
func (ca *caster) run() {
	ch := ca.srv.cfg.Program.Channels[ca.channel]
	if len(ch.Slots) == 0 || ch.CycleLength <= 0 {
		<-ca.srv.closed
		return
	}
	plans, ok := ca.buildPlans(ch)
	if !ok {
		return
	}
	for cycle := 0; ; cycle++ {
		cycleStart := float64(cycle) * ch.CycleLength
		if skip := ca.catchUp(cycleStart, ch.CycleLength); skip > 0 {
			cycle += skip
			cycleStart = float64(cycle) * ch.CycleLength
		}
		for i := range plans {
			pl := &plans[i]
			if !ca.sleepUntil(cycleStart + pl.slot.Start) {
				return
			}
			begin, err := beginFrame(ca.channel, pl.slot, pl.payloadLen, cycle)
			if err != nil {
				// Unreachable: the body is always marshalable.
				return
			}
			pl.batch[0] = begin
			ca.publish(pl.batch...)
			if !ca.sleepUntil(cycleStart + pl.slot.End()) {
				return
			}
			endF, err := endFrame(ca.channel, pl.slot, cycle)
			if err != nil {
				return
			}
			ca.publish(endF)
		}
	}
}
