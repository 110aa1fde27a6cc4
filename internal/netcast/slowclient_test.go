package netcast

import (
	"net"
	"testing"
	"time"

	"diversecast/internal/wire"
)

// A subscriber that never reads must be dropped — and must not disturb
// other subscribers. This is the server's head-of-line-blocking
// defense: the stalled subscriber's write loop blocks on a full socket
// until its write deadline expires (or it is lapped by the ring past
// the resync budget), and it is cut loose while the caster and every
// other subscriber's cursor keep moving.
func TestSlowSubscriberIsDroppedNotBlocking(t *testing.T) {
	_, p := testProgram(t)
	srv, err := Serve("127.0.0.1:0", ServerConfig{
		Program:   p,
		TimeScale: 0.005,
		// Large payloads fill the stalled connection's kernel socket
		// buffer within a few cycles, after which its writer blocks
		// until the write deadline expires and the subscriber is
		// dropped. The default ring comfortably absorbs the per-item
		// chunk bursts (~33 frames) a healthy, draining subscriber
		// also sees.
		BytesPerUnit: 16384,
		WriteTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The stalled subscriber: completes the handshake, then never
	// reads again.
	stalled, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := wire.ReadFrame(stalled); err != nil { // hello
		t.Fatal(err)
	}
	if err := wire.WriteJSON(stalled, wire.MsgSubscribe, wire.Subscribe{Channel: 0}); err != nil {
		t.Fatal(err)
	}

	// The healthy subscriber keeps reading the whole time.
	healthy, err := Tune(srv.Addr().String(), 0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	// Detect the server dropping the stalled connection WITHOUT
	// reading from it (reading would drain the buffers the stall is
	// supposed to fill): probe with tiny writes. The server never
	// reads after the handshake, so probes queue harmlessly in its
	// receive buffer while the connection lives; once the server
	// closes it, the peer responds with RST and a probe write fails.
	closed := make(chan struct{}, 1)
	go func() {
		for {
			if err := stalled.SetWriteDeadline(time.Now().Add(time.Second)); err != nil {
				closed <- struct{}{}
				return
			}
			if _, err := stalled.Write([]byte{0}); err != nil {
				closed <- struct{}{}
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()

	deadline := time.Now().Add(20 * time.Second)
	received := 0
	sawDrop := false
	for time.Now().Before(deadline) && (!sawDrop || received < 12) {
		rec, err := healthy.NextItem(time.Now().Add(5 * time.Second))
		if err != nil {
			t.Fatalf("healthy subscriber failed after %d items: %v", received, err)
		}
		if err := VerifyPayload(rec); err != nil {
			t.Fatal(err)
		}
		received++
		select {
		case <-closed:
			sawDrop = true
		default:
		}
	}
	if received < 12 {
		t.Fatalf("healthy subscriber received only %d items", received)
	}
	if !sawDrop {
		t.Fatal("stalled subscriber was never disconnected")
	}
}
