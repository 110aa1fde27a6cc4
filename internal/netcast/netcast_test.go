package netcast

import (
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"diversecast/internal/broadcast"
	"diversecast/internal/core"
	"diversecast/internal/wire"
)

// testProgram builds a small 2-channel program: cycle lengths around
// one virtual second so accelerated tests stay fast.
func testProgram(t *testing.T) (*core.Allocation, *broadcast.Program) {
	t.Helper()
	db := core.MustNewDatabase([]core.Item{
		{ID: 1, Freq: 0.40, Size: 2},
		{ID: 2, Freq: 0.25, Size: 3},
		{ID: 3, Freq: 0.15, Size: 5},
		{ID: 4, Freq: 0.10, Size: 4},
		{ID: 5, Freq: 0.06, Size: 6},
		{ID: 6, Freq: 0.04, Size: 8},
	})
	a, err := core.NewDRPCDS().Allocate(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := broadcast.Build(a, 10, broadcast.ByPosition)
	if err != nil {
		t.Fatal(err)
	}
	return a, p
}

func startServer(t *testing.T, p *broadcast.Program, scale float64) *Server {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", ServerConfig{Program: p, TimeScale: scale})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestServeValidation(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", ServerConfig{}); err == nil {
		t.Fatal("nil program should fail")
	}
	_, p := testProgram(t)
	if _, err := Serve("127.0.0.1:0", ServerConfig{Program: p, TimeScale: -1}); err == nil {
		t.Fatal("negative time scale should fail")
	}
	if _, err := Serve("127.0.0.1:0", ServerConfig{Program: p, BytesPerUnit: -2}); err == nil {
		t.Fatal("negative bytes-per-unit should fail")
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	_, p := testProgram(t)
	srv := startServer(t, p, 0.01)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestTuneAndHello(t *testing.T) {
	_, p := testProgram(t)
	srv := startServer(t, p, 0.01)
	c, err := Tune(srv.Addr().String(), 0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h := c.Hello()
	if h.K != p.K || h.Bandwidth != p.Bandwidth || h.TimeScale != 0.01 {
		t.Fatalf("hello = %+v", h)
	}
	if c.Channel() != 0 {
		t.Fatalf("channel = %d", c.Channel())
	}
}

func TestTuneRejectsBadChannel(t *testing.T) {
	_, p := testProgram(t)
	srv := startServer(t, p, 0.01)
	if _, err := Tune(srv.Addr().String(), 99, 2*time.Second); err == nil {
		t.Fatal("tuning to channel 99 should fail client-side")
	}
	if _, err := Tune(srv.Addr().String(), -1, 2*time.Second); err == nil {
		t.Fatal("tuning to channel -1 should fail")
	}
}

func TestServerRejectsBadSubscribeFrame(t *testing.T) {
	// Speak the protocol manually with an out-of-range channel that
	// the client-side check would have caught.
	_, p := testProgram(t)
	srv := startServer(t, p, 0.01)
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := wire.ReadFrame(conn); err != nil { // hello
		t.Fatal(err)
	}
	if err := wire.WriteJSON(conn, wire.MsgSubscribe, wire.Subscribe{Channel: 42}); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.MsgError {
		t.Fatalf("expected error frame, got %s", f.Type)
	}
	var eb wire.ErrorBody
	if err := wire.DecodeJSON(f, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Message == "" {
		t.Fatal("error frame without message")
	}
}

func TestReceiveAndVerifyItems(t *testing.T) {
	a, p := testProgram(t)
	srv := startServer(t, p, 0.01)
	c, err := Tune(srv.Addr().String(), 0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	onChannel := make(map[int]bool)
	db := a.Database()
	for pos := 0; pos < db.Len(); pos++ {
		if a.ChannelOf(pos) == 0 {
			onChannel[db.Item(pos).ID] = true
		}
	}

	seen := make(map[int]bool)
	deadline := time.Now().Add(5 * time.Second)
	for len(seen) < len(onChannel) {
		rec, err := c.NextItem(deadline)
		if err != nil {
			t.Fatalf("after seeing %v of %v: %v", seen, onChannel, err)
		}
		if !onChannel[rec.Begin.ItemID] {
			t.Fatalf("item %d broadcast on wrong channel", rec.Begin.ItemID)
		}
		if err := VerifyPayload(rec); err != nil {
			t.Fatal(err)
		}
		if !rec.EndAt.After(rec.BeginAt) {
			t.Fatal("transmission end not after begin")
		}
		seen[rec.Begin.ItemID] = true
	}
}

func TestCyclicRepetition(t *testing.T) {
	_, p := testProgram(t)
	srv := startServer(t, p, 0.005)
	c, err := Tune(srv.Addr().String(), 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Read enough transmissions to cross a cycle boundary and check
	// the cycle counter increases.
	slots := len(p.Channels[1].Slots)
	deadline := time.Now().Add(5 * time.Second)
	maxCycle := 0
	for i := 0; i < 2*slots+1; i++ {
		rec, err := c.NextItem(deadline)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Begin.Cycle > maxCycle {
			maxCycle = rec.Begin.Cycle
		}
	}
	if maxCycle < 1 {
		t.Fatal("never observed a second broadcast cycle")
	}
}

func TestWaitForItemMeasuresWait(t *testing.T) {
	a, p := testProgram(t)
	const scale = 0.01
	srv := startServer(t, p, scale)

	// Pick an item on channel 0 and bound its worst-case wait by
	// cycle + duration (scaled), with headroom for scheduler jitter.
	db := a.Database()
	var itemID int
	var pos int
	for i := 0; i < db.Len(); i++ {
		if a.ChannelOf(i) == 0 {
			itemID, pos = db.Item(i).ID, i
			break
		}
	}
	cycle := p.Channels[0].CycleLength
	_, _, _ = p.Locate(pos)

	c, err := Tune(srv.Addr().String(), 0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec, wait, err := c.WaitForItem(itemID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Begin.ItemID != itemID {
		t.Fatalf("received item %d", rec.Begin.ItemID)
	}
	if wait <= 0 {
		t.Fatal("non-positive measured wait")
	}
	worstVirtual := cycle + p.Channels[0].Slots[0].Duration + cycle // + full cycle of slack
	if wait > time.Duration(worstVirtual*scale*float64(time.Second))+500*time.Millisecond {
		t.Fatalf("wait %v exceeds worst case", wait)
	}
}

func TestMultipleSubscribersSeeSameBroadcast(t *testing.T) {
	_, p := testProgram(t)
	srv := startServer(t, p, 0.005)

	const subscribers = 4
	const receive = 6
	sequences := make([][]int, subscribers)
	var wg sync.WaitGroup
	errs := make(chan error, subscribers)
	// Tune everyone first so all receivers observe the same cycles.
	clients := make([]*Client, subscribers)
	for i := range clients {
		c, err := Tune(srv.Addr().String(), 0, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.Now().Add(5 * time.Second)
			for n := 0; n < receive; n++ {
				rec, err := c.NextItem(deadline)
				if err != nil {
					errs <- err
					return
				}
				sequences[i] = append(sequences[i], rec.Begin.ItemID*1000+rec.Begin.Cycle)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All subscribers tuned before the items they report; their
	// sequences must be identical suffixes of the channel stream —
	// align on the first common element and compare.
	base := sequences[0]
	for i := 1; i < subscribers; i++ {
		if !alignedEqual(base, sequences[i]) {
			t.Fatalf("subscriber %d saw %v, subscriber 0 saw %v", i, sequences[i], base)
		}
	}
}

// alignedEqual reports whether two item sequences agree on their
// overlap after aligning on the first element of the later-starting
// one.
func alignedEqual(a, b []int) bool {
	// Find b[0] in a (or a[0] in b) and compare the overlap.
	for off := 0; off < len(a); off++ {
		if a[off] == b[0] {
			n := len(a) - off
			if len(b) < n {
				n = len(b)
			}
			for i := 0; i < n; i++ {
				if a[off+i] != b[i] {
					return false
				}
			}
			return true
		}
	}
	for off := 0; off < len(b); off++ {
		if b[off] == a[0] {
			n := len(b) - off
			if len(a) < n {
				n = len(a)
			}
			for i := 0; i < n; i++ {
				if b[off+i] != a[i] {
					return false
				}
			}
			return true
		}
	}
	return false
}

func TestServerCloseDisconnectsClients(t *testing.T) {
	_, p := testProgram(t)
	srv := startServer(t, p, 0.01)
	c, err := Tune(srv.Addr().String(), 0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = c.NextItem(time.Now().Add(2 * time.Second))
	if err == nil {
		t.Fatal("NextItem succeeded after server close")
	}
	if !errors.Is(err, io.EOF) && !isNetError(err) {
		t.Fatalf("unexpected error type: %v", err)
	}
}

func isNetError(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF)
}

func TestPayloadDeterminism(t *testing.T) {
	a := Payload(7, 1000)
	b := Payload(7, 1000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("payload generation not deterministic")
		}
	}
	c := Payload(8, 1000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different items share payloads")
	}
}

func TestPayloadLen(t *testing.T) {
	if got := PayloadLen(2.5, 64); got != 160 {
		t.Fatalf("PayloadLen(2.5, 64) = %d", got)
	}
	if got := PayloadLen(0.001, 64); got != 1 {
		t.Fatalf("tiny items must get the 1-byte floor, got %d", got)
	}
	if got := PayloadLen(1, 1); got != 1 {
		t.Fatalf("PayloadLen(1,1) = %d", got)
	}
}

// Loose timing check: the mean measured wait over several independent
// tune-ins approaches the analytical expectation for that item.
func TestMeanWaitTracksAnalyticalModel(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive test skipped in -short mode")
	}
	a, p := testProgram(t)
	const scale = 0.01
	srv := startServer(t, p, scale)
	db := a.Database()

	// Use the first item of channel 1.
	var pos int
	for i := 0; i < db.Len(); i++ {
		if a.ChannelOf(i) == 1 {
			pos = i
			break
		}
	}
	itemID := db.Item(pos).ID
	analytic := core.ItemWaitingTime(a, pos, 10) * scale // seconds, real time

	const rounds = 25
	var sum float64
	for i := 0; i < rounds; i++ {
		c, err := Tune(srv.Addr().String(), 1, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_, wait, err := c.WaitForItem(itemID, 5*time.Second)
		c.Close()
		if err != nil {
			t.Fatal(err)
		}
		sum += wait.Seconds()
		// Decorrelate tune-in phase from the cycle.
		time.Sleep(time.Duration((float64(i)*0.37 - math.Floor(float64(i)*0.37)) * scale * float64(time.Second) * p.Channels[1].CycleLength / 4))
	}
	mean := sum / rounds
	if mean < analytic*0.4 || mean > analytic*2.5 {
		t.Fatalf("mean measured wait %.4fs, analytical %.4fs — outside loose band", mean, analytic)
	}
}

func BenchmarkBroadcastThroughput(b *testing.B) {
	// Frames delivered to one subscriber across b.N item receptions.
	db := core.MustNewDatabase([]core.Item{
		{ID: 1, Freq: 0.5, Size: 1},
		{ID: 2, Freq: 0.5, Size: 1},
	})
	a, err := core.NewDRPCDS().Allocate(db, 1)
	if err != nil {
		b.Fatal(err)
	}
	p, err := broadcast.Build(a, 10, broadcast.ByPosition)
	if err != nil {
		b.Fatal(err)
	}
	// Moderate pacing and a deep ring: the benchmark framework
	// pauses between measurement rounds, and the subscriber must not
	// be lapped or dropped for falling behind while the harness isn't
	// reading.
	srv, err := Serve("127.0.0.1:0", ServerConfig{
		Program:      p,
		TimeScale:    0.005,
		RingCapacity: 8192,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Tune(srv.Addr().String(), 0, 2*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.NextItem(time.Now().Add(5 * time.Second)); err != nil {
			b.Fatal(err)
		}
	}
}
