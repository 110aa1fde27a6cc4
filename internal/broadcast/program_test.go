package broadcast

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"diversecast/internal/core"
	"diversecast/internal/workload"
)

func buildFixture(t *testing.T) (*core.Allocation, *Program) {
	t.Helper()
	db := core.PaperExampleDatabase()
	a, err := core.NewDRPCDS().Allocate(db, core.PaperExampleK)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(a, workload.PaperBandwidth, ByPosition)
	if err != nil {
		t.Fatal(err)
	}
	return a, p
}

func TestBuildValidation(t *testing.T) {
	db := core.PaperExampleDatabase()
	a, err := core.NewDRP().Allocate(db, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(nil, 10, ByPosition); err == nil {
		t.Error("nil allocation should fail")
	}
	if _, err := Build(a, 0, ByPosition); err == nil {
		t.Error("zero bandwidth should fail")
	}
	if _, err := Build(a, -1, ByPosition); err == nil {
		t.Error("negative bandwidth should fail")
	}
	if _, err := Build(a, math.Inf(1), ByPosition); err == nil {
		t.Error("infinite bandwidth should fail")
	}
}

func TestBuildStructure(t *testing.T) {
	a, p := buildFixture(t)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.K != a.K() {
		t.Fatalf("K = %d, want %d", p.K, a.K())
	}
	// Every item appears in exactly one slot, on its allocated channel.
	db := a.Database()
	count := 0
	for c, ch := range p.Channels {
		for _, slot := range ch.Slots {
			count++
			if a.ChannelOf(slot.Pos) != c {
				t.Errorf("item pos %d scheduled on channel %d, allocated to %d", slot.Pos, c, a.ChannelOf(slot.Pos))
			}
			if db.Item(slot.Pos).ID != slot.ItemID {
				t.Errorf("slot item ID %d != db ID %d", slot.ItemID, db.Item(slot.Pos).ID)
			}
		}
		// Cycle length = aggregate size / bandwidth (Eq. in §2.1).
		if want := core.CycleLength(a, c, p.Bandwidth); math.Abs(ch.CycleLength-want) > 1e-9 {
			t.Errorf("channel %d cycle %v, want %v", c, ch.CycleLength, want)
		}
	}
	if count != db.Len() {
		t.Fatalf("%d slots for %d items", count, db.Len())
	}
}

func TestSlotOrders(t *testing.T) {
	db := core.PaperExampleDatabase()
	a, err := core.NewDRP().Allocate(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Build(a, 10, ByFrequency)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range pf.Channels {
		for i := 1; i < len(ch.Slots); i++ {
			if db.Item(ch.Slots[i].Pos).Freq > db.Item(ch.Slots[i-1].Pos).Freq {
				t.Fatal("ByFrequency slots not in descending frequency")
			}
		}
	}
	ps, err := Build(a, 10, BySize)
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range ps.Channels {
		for i := 1; i < len(ch.Slots); i++ {
			if ch.Slots[i].Size < ch.Slots[i-1].Size {
				t.Fatal("BySize slots not in ascending size")
			}
		}
	}
	// The order must not change any cycle length.
	p0, err := Build(a, 10, ByPosition)
	if err != nil {
		t.Fatal(err)
	}
	for c := range p0.Channels {
		if math.Abs(p0.Channels[c].CycleLength-pf.Channels[c].CycleLength) > 1e-12 {
			t.Fatal("slot order changed cycle length")
		}
	}
}

func TestLocate(t *testing.T) {
	a, p := buildFixture(t)
	db := a.Database()
	for pos := 0; pos < db.Len(); pos++ {
		c, s, ok := p.Locate(pos)
		if !ok {
			t.Fatalf("item pos %d not located", pos)
		}
		if p.Channels[c].Slots[s].Pos != pos {
			t.Fatalf("Locate(%d) points at wrong slot", pos)
		}
	}
	if _, _, ok := p.Locate(999); ok {
		t.Fatal("Locate of unscheduled position succeeded")
	}
}

func TestNextStartAndWaitFor(t *testing.T) {
	_, p := buildFixture(t)
	pos := p.Channels[0].Slots[0].Pos
	slot := p.Channels[0].Slots[0]
	cycle := p.Channels[0].CycleLength

	// At t=0 the first slot starts immediately.
	start, err := p.NextStart(pos, 0)
	if err != nil {
		t.Fatal(err)
	}
	if start != slot.Start {
		t.Fatalf("NextStart at 0 = %v, want %v", start, slot.Start)
	}
	// Just after the slot begins, the client waits for the next cycle.
	start, err = p.NextStart(pos, slot.Start+1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(start-(slot.Start+cycle)) > 1e-6 {
		t.Fatalf("NextStart mid-slot = %v, want next cycle %v", start, slot.Start+cycle)
	}
	// Far in the future the wait stays within (0, cycle+duration].
	for _, at := range []float64{17.3, 123.456, 9999.9} {
		w, err := p.WaitFor(pos, at)
		if err != nil {
			t.Fatal(err)
		}
		if w <= 0 || w > cycle+slot.Duration+1e-9 {
			t.Fatalf("WaitFor(%v) = %v outside (0, cycle+dur]", at, w)
		}
	}
	if _, err := p.WaitFor(999, 0); err == nil {
		t.Fatal("WaitFor unscheduled item should fail")
	}
}

// Property: the mean of WaitFor over arrival times uniform in one
// cycle equals the analytical item waiting time of Eq. (1).
func TestWaitForMeanMatchesAnalyticalModel(t *testing.T) {
	db := workload.Config{N: 25, Theta: 0.8, Phi: 1.5, Seed: 5}.MustGenerate()
	a, err := core.NewDRPCDS().Allocate(db, 4)
	if err != nil {
		t.Fatal(err)
	}
	const b = 10.0
	p, err := Build(a, b, ByPosition)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < db.Len(); pos++ {
		c, _, _ := p.Locate(pos)
		cycle := p.Channels[c].CycleLength
		const samples = 2000
		var sum float64
		for i := 0; i < samples; i++ {
			at := cycle * float64(i) / samples
			w, err := p.WaitFor(pos, at)
			if err != nil {
				t.Fatal(err)
			}
			sum += w
		}
		got := sum / samples
		want := core.ItemWaitingTime(a, pos, b)
		if math.Abs(got-want) > want*0.01+1e-6 {
			t.Fatalf("item %d: mean wait %v, analytical %v", pos, got, want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	_, p := buildFixture(t)
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.K != p.K || loaded.Bandwidth != p.Bandwidth {
		t.Fatal("header fields lost in round trip")
	}
	for c := range p.Channels {
		if len(loaded.Channels[c].Slots) != len(p.Channels[c].Slots) {
			t.Fatal("slots lost in round trip")
		}
		for s := range p.Channels[c].Slots {
			if loaded.Channels[c].Slots[s] != p.Channels[c].Slots[s] {
				t.Fatalf("slot %d/%d differs after round trip", c, s)
			}
		}
	}
	// The loaded program is immediately usable.
	pos := p.Channels[0].Slots[0].Pos
	w1, err := p.WaitFor(pos, 3.3)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := loaded.WaitFor(pos, 3.3)
	if err != nil {
		t.Fatal(err)
	}
	if w1 != w2 {
		t.Fatal("loaded program computes different waits")
	}
}

func TestReadJSONRejectsCorrupt(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("corrupt JSON should fail")
	}
	// Structurally valid JSON but an inconsistent program.
	bad := `{"k":1,"bandwidth":10,"channels":[{"index":0,"slots":[
		{"pos":0,"item_id":1,"size":10,"start":5,"duration":1}],"cycle_length":1}]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("inconsistent program should fail validation")
	}
	// Contiguous, size-consistent slots, but position 0 airs twice per
	// cycle: every program carries one slot per item.
	if _, err := ReadJSON(strings.NewReader(twiceScheduled)); err == nil {
		t.Fatal("a position scheduled twice should fail validation")
	}
}

// twiceScheduled is a well-formed single-channel program that
// schedules position 0 twice per cycle.
const twiceScheduled = `{"k":1,"bandwidth":10,"channels":[{"index":0,"slots":[
	{"pos":0,"item_id":1,"size":10,"start":0,"duration":1},
	{"pos":1,"item_id":2,"size":10,"start":1,"duration":1},
	{"pos":0,"item_id":1,"size":10,"start":2,"duration":1}],"cycle_length":3}]}`

func TestRender(t *testing.T) {
	_, p := buildFixture(t)
	out := p.Render(map[int]string{1: "headline-news"})
	if !strings.Contains(out, "channel 0") || !strings.Contains(out, "headline-news") {
		t.Fatalf("render output missing expected content:\n%s", out)
	}
	if !strings.Contains(out, "item 2") {
		t.Fatalf("untitled items should fall back to item IDs:\n%s", out)
	}
}

// Property: programs built from arbitrary valid allocations validate.
func TestBuildAlwaysValidates(t *testing.T) {
	check := func(seed uint16, rawN, rawK uint8, order uint8) bool {
		n := int(rawN)%30 + 1
		k := int(rawK)%n + 1
		db := workload.Config{N: n, Theta: 0.8, Phi: 2, Seed: int64(seed)}.MustGenerate()
		a, err := core.NewDRP().Allocate(db, k)
		if err != nil {
			return false
		}
		p, err := Build(a, 10, SlotOrder(order%3))
		if err != nil {
			return false
		}
		return p.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
