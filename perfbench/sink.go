package main

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"diversecast/internal/wire"
)

// sink is an in-process subscriber attached with Server.Attach: a
// net.Conn stand-in that swallows the frames the fan-out writes to it
// and keeps just enough state to say which ring frames it received.
//
// The server writes each frame with its own Write call (the vectored
// write falls back to one Write per buffer on a non-socket conn), so a
// Write is a frame; a Write that is not exactly one well-formed frame
// is counted in malformed and fails the run.
//
// Ring frames are numbered by the channel's broadcast sequence: the
// n-th frame the caster published has sequence n-1. A sink receives
// every frame from the ring head at its attach time (first) onward, in
// order, except the ranges a MsgResync reports as skipped. advanced
// counts the sequence positions it has passed since: frames received
// plus frames skipped.
//
// first is read from the channel's broadcast counter right after
// Attach returns. The counter is bumped before the ring publishes, so
// it is never below the head the sink's cursor started from; it is
// above it only when a publish ran during the Attach call, by at most
// the frames published then.
type sink struct {
	closed    atomic.Bool
	first     int64 // set and read by the attaching goroutine only
	advanced  atomic.Int64
	malformed atomic.Int64

	mu    sync.Mutex
	skips []seqRange // lapped ranges from MsgResync, relative to first
}

// seqRange is the half-open broadcast-sequence range [lo, hi).
type seqRange struct{ lo, hi int64 }

func (s *sink) Write(p []byte) (int, error) {
	if s.closed.Load() {
		return 0, net.ErrClosed
	}
	if len(p) < 5 || int(binary.BigEndian.Uint32(p[:4])) != len(p)-4 {
		s.malformed.Add(1)
		return len(p), nil
	}
	if wire.MsgType(p[4]) == wire.MsgResync {
		var rs wire.Resync
		if err := json.Unmarshal(p[5:], &rs); err != nil {
			s.malformed.Add(1)
			return len(p), nil
		}
		n := s.advanced.Load()
		s.mu.Lock()
		s.skips = append(s.skips, seqRange{n, n + int64(rs.Skipped)})
		s.mu.Unlock()
		s.advanced.Add(int64(rs.Skipped))
		return len(p), nil
	}
	s.advanced.Add(1)
	return len(p), nil
}

func (s *sink) Read([]byte) (int, error) { return 0, io.EOF }

func (s *sink) Close() error {
	s.closed.Store(true)
	return nil
}

func (s *sink) LocalAddr() net.Addr              { return sinkAddr{} }
func (s *sink) RemoteAddr() net.Addr             { return sinkAddr{} }
func (s *sink) SetDeadline(time.Time) error      { return nil }
func (s *sink) SetReadDeadline(time.Time) error  { return nil }
func (s *sink) SetWriteDeadline(time.Time) error { return nil }

type sinkAddr struct{}

func (sinkAddr) Network() string { return "sink" }
func (sinkAddr) String() string  { return "sink" }

// window reports, for the broadcast-sequence window [lo, hi), how many
// of its frames the sink received (got) and how many it was owed
// (want): every frame of the window from its attach point on.
func (s *sink) window(lo, hi int64) (got, want int64) {
	s.mu.Lock()
	skips := make([]seqRange, len(s.skips))
	for i, sk := range s.skips {
		skips[i] = seqRange{s.first + sk.lo, s.first + sk.hi}
	}
	s.mu.Unlock()
	return windowDeliveries(s.first, s.first+s.advanced.Load(), skips, lo, hi)
}

// windowDeliveries is the delivery accounting behind delivery_ratio.
// A subscriber that attached at sequence first and has been handed
// every frame up to (excluding) next, minus the skipped ranges, holds
// the frames of [lo, hi) that lie in [first, next) outside any skip.
// It is owed the frames of [max(lo, first), hi).
//
// Only frames broadcast inside the window count on either side, so
// got ≤ want by construction: a frame broadcast before the window and
// delivered inside it — the backlog a lagging subscriber drains after
// the window opens — is not a delivery of the window. Frames of the
// window still in flight when the sink is read (next < hi) count as
// missing; reading after a grace period keeps that slack small.
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

func overlap(a, b seqRange) int64 {
	return max(0, min(a.hi, b.hi)-max(a.lo, b.lo))
}
