package netcast

import "sync"

// frameRing is the shared fan-out structure at the heart of the
// massive-subscriber broadcast path: a fixed-capacity, sequence-
// numbered ring of immutable, pre-encoded wire frames. The caster
// appends each frame exactly once — encoded once per cycle, not once
// per subscriber — and every subscriber holds only a cursor (the
// sequence number of the next frame it wants). A subscriber drains
// ring[cursor:head] in batches; publishing is O(frames) regardless of
// how many subscribers are attached, which is what makes 100k+
// subscribers per channel feasible where O(subscribers) sends per
// frame would be the wall.
//
// Invariants:
//   - head only grows; frame seq s lives at buf[s%cap] and is valid
//     iff head-cap <= s < head (frames are overwritten, never removed).
//   - buffers handed to publish are immutable from that point on:
//     readers slice them concurrently without copies or locks.
//   - wait is replaced (and the old one closed) on every publish, so a
//     parked subscriber wakes on the next append no matter how many
//     subscribers are parked — one close, not one send per subscriber.
//   - a reader whose cursor has fallen out of the window can never
//     read torn data: claim detects the lap and reports how many
//     frames were lost instead of returning overwritten buffers.
type frameRing struct {
	// mu guards every field below it.
	mu   sync.Mutex
	buf  [][]byte
	head uint64
	wait chan struct{}
}

func newFrameRing(capacity int) *frameRing {
	return &frameRing{buf: make([][]byte, capacity), wait: make(chan struct{})}
}

// publish appends encoded frames and wakes every parked subscriber.
func (r *frameRing) publish(frames ...[]byte) {
	if len(frames) == 0 {
		return
	}
	r.mu.Lock()
	for _, f := range frames {
		r.buf[r.head%uint64(len(r.buf))] = f
		r.head++
	}
	close(r.wait)
	r.wait = make(chan struct{})
	r.mu.Unlock()
}

// headSeq returns the sequence number the next published frame will
// get; a subscriber registering now starts its cursor here.
func (r *frameRing) headSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.head
}

// depth reports how many frames the ring currently retains.
func (r *frameRing) depth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.head < uint64(len(r.buf)) {
		return int(r.head)
	}
	return len(r.buf)
}

// claim is the subscriber-side read: it appends up to max frames
// starting at cursor into dst (reused across calls to avoid per-wakeup
// allocation) and returns the batch together with the cursor position
// after it.
//
// The three outcomes encode the backpressure tiers:
//   - skipped > 0: the subscriber was lapped — the frames in
//     [cursor, head-capacity) are gone. No batch is returned; next is
//     the ring head ("resume-from-head" resync) and the caller owes
//     the client a MsgResync frame announcing the gap.
//   - batch empty, skipped 0: the subscriber is fully drained; wait is
//     a channel closed by the next publish.
//   - batch non-empty: frames to write. lag is head-cursor at claim
//     time, the subscriber's backlog before this drain.
//
//diverselint:hotpath per-drain ring claim runs under the ring mutex
func (r *frameRing) claim(cursor uint64, max int, dst [][]byte) (batch [][]byte, next uint64, lag, skipped uint64, wait <-chan struct{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cursor >= r.head {
		return nil, cursor, 0, 0, r.wait
	}
	lag = r.head - cursor
	if lag > uint64(len(r.buf)) {
		// Lapped: everything between cursor and the window floor has
		// been overwritten. Resume from the head.
		return nil, r.head, lag, lag, nil
	}
	n := int(lag)
	if n > max {
		n = max
	}
	batch = dst[:0]
	for i := 0; i < n; i++ {
		batch = append(batch, r.buf[(cursor+uint64(i))%uint64(len(r.buf))])
	}
	return batch, cursor + uint64(n), lag, 0, nil
}
