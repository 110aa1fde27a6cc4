package netcast

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// frames builds n distinct one-byte-prefixed frames for ring tests.
func testFrames(start, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("frame-%d", start+i))
	}
	return out
}

func TestFrameRingClaimWindow(t *testing.T) {
	r := newFrameRing(4)

	// Empty ring: nothing to claim, a wait channel comes back.
	batch, next, lag, skipped, wait := r.claim(0, 8, nil)
	if batch != nil || next != 0 || lag != 0 || skipped != 0 || wait == nil {
		t.Fatalf("empty claim = (%v,%d,%d,%d,%v)", batch, next, lag, skipped, wait)
	}

	r.publish(testFrames(0, 3)...)
	if got := r.headSeq(); got != 3 {
		t.Fatalf("headSeq = %d, want 3", got)
	}
	if got := r.depth(); got != 3 {
		t.Fatalf("depth = %d, want 3", got)
	}

	// A full drain in order.
	batch, next, lag, skipped, _ = r.claim(0, 8, nil)
	if skipped != 0 || lag != 3 || next != 3 || len(batch) != 3 {
		t.Fatalf("claim = (len %d,%d,%d,%d)", len(batch), next, lag, skipped)
	}
	for i, f := range batch {
		if want := fmt.Sprintf("frame-%d", i); string(f) != want {
			t.Fatalf("batch[%d] = %q, want %q", i, f, want)
		}
	}

	// max caps the batch, the cursor advances only past what was taken.
	batch, next, _, _, _ = r.claim(0, 2, nil)
	if len(batch) != 2 || next != 2 {
		t.Fatalf("capped claim = (len %d, next %d), want (2, 2)", len(batch), next)
	}
}

func TestFrameRingWrapAndLap(t *testing.T) {
	r := newFrameRing(4)
	r.publish(testFrames(0, 4)...)

	// lag == capacity is the edge of the window: still fully readable.
	batch, next, lag, skipped, _ := r.claim(0, 8, nil)
	if skipped != 0 || lag != 4 || next != 4 || len(batch) != 4 {
		t.Fatalf("edge claim = (len %d,%d,%d,%d)", len(batch), next, lag, skipped)
	}

	// One more publish overwrites seq 0: a cursor still at 0 is lapped
	// and must be bounced to the head, never handed overwritten data.
	r.publish(testFrames(4, 1)...)
	batch, next, lag, skipped, _ = r.claim(0, 8, nil)
	if batch != nil || skipped != 5 || lag != 5 || next != 5 {
		t.Fatalf("lapped claim = (len %d,%d,%d,%d), want (0,5,5,5)", len(batch), next, lag, skipped)
	}

	// Wrapped reads index modulo capacity correctly.
	batch, _, _, _, _ = r.claim(3, 8, nil)
	if len(batch) != 2 || string(batch[0]) != "frame-3" || string(batch[1]) != "frame-4" {
		t.Fatalf("wrapped claim = %q", batch)
	}
	if got := r.depth(); got != 4 {
		t.Fatalf("depth after wrap = %d, want capacity 4", got)
	}
}

func TestFrameRingPublishWakesAllWaiters(t *testing.T) {
	r := newFrameRing(4)
	_, _, _, _, wait := r.claim(0, 1, nil)

	const waiters = 8
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-wait
		}()
	}
	r.publish([]byte("x"))
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publish did not wake every parked waiter")
	}
}

// TestFrameRingClaimedBatchSurvivesOverwrite pins the immutability
// contract: a batch claimed before the ring wraps still holds the
// original buffers afterwards (overwrite replaces the slot's pointer,
// never the bytes a reader already claimed).
func TestFrameRingClaimedBatchSurvivesOverwrite(t *testing.T) {
	r := newFrameRing(2)
	r.publish([]byte("old-0"), []byte("old-1"))
	batch, _, _, _, _ := r.claim(0, 2, nil)
	r.publish([]byte("new-2"), []byte("new-3"))
	if !bytes.Equal(batch[0], []byte("old-0")) || !bytes.Equal(batch[1], []byte("old-1")) {
		t.Fatalf("claimed batch mutated by overwrite: %q", batch)
	}
}

func TestTokenBucketReserve(t *testing.T) {
	b := newTokenBucket(1000, 100) // 1000 tokens/s, 100 banked

	// The banked burst admits immediately.
	if d := b.reserve(100); d != 0 {
		t.Fatalf("burst reserve waited %v", d)
	}
	// The next reservation is in debt: roughly n/rate of wait.
	d := b.reserve(500)
	if d <= 0 {
		t.Fatalf("over-burst reserve waited %v, want > 0", d)
	}
	if d > time.Second {
		t.Fatalf("wait %v for 500 tokens at 1000/s", d)
	}
	// Debt accumulates across reservations — each wait covers the
	// reservations before it.
	d2 := b.reserve(500)
	if d2 <= d {
		t.Fatalf("second reserve wait %v not after first %v", d2, d)
	}
}

func TestTokenBucketRefills(t *testing.T) {
	b := newTokenBucket(1e6, 1e4)
	b.reserve(10_000) // drain the bank
	time.Sleep(20 * time.Millisecond)
	// 20ms at 1e6/s refills 2e4, capped at burst 1e4: covered again.
	if d := b.reserve(10_000); d != 0 {
		t.Fatalf("refilled reserve waited %v", d)
	}
}

// TestTokenBucketSharedByWriters: a channel-wide bucket is reserved by
// every subscriber's writer goroutine at once, and each reservation
// must be debited exactly once — the bucket's debt after the writers
// finish covers all of them, less at most the refill since the start.
// Under -race this is also the check that reserve holds the lock.
func TestTokenBucketSharedByWriters(t *testing.T) {
	const writers, each, n, rate = 4, 200, 10, 100.0
	b := newTokenBucket(rate, rate)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				b.reserve(n)
			}
		}()
	}
	wg.Wait()
	refill := time.Since(start).Seconds() * rate
	want := rate - writers*each*n
	if b.tokens < want-1e-6 || b.tokens > want+refill+1e-6 {
		t.Fatalf("balance %.3f after %d concurrent reservations, want %.0f plus at most %.3f refilled",
			b.tokens, writers*each, want, refill)
	}
}

func TestTokenBucketBurstFloor(t *testing.T) {
	// A zero burst would wedge the bucket permanently in debt; the
	// constructor floors it at rate/100.
	b := newTokenBucket(1000, 0)
	if d := b.reserve(10); d != 0 {
		t.Fatalf("floored-burst bucket waited %v for its first 10 tokens", d)
	}
}
