// Package broadcast turns a channel allocation into an executable
// broadcast program: per-channel cyclic schedules with slot start
// times, plus lookup helpers (when does item x next air?), JSON
// serialization and human-readable rendering. Both the discrete-event
// air simulator and the TCP broadcast server execute these programs.
package broadcast

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"diversecast/internal/core"
	"diversecast/internal/keyorder"
)

// Slot is one item transmission within a channel cycle.
type Slot struct {
	// Pos is the item's database position; ItemID its stable ID.
	Pos    int     `json:"pos"`
	ItemID int     `json:"item_id"`
	Size   float64 `json:"size"`
	// Start is the slot's offset from the cycle start in seconds;
	// Duration is Size/bandwidth.
	Start    float64 `json:"start"`
	Duration float64 `json:"duration"`
}

// End returns the slot's end offset.
func (s Slot) End() float64 { return s.Start + s.Duration }

// Channel is one broadcast channel's cyclic schedule.
type Channel struct {
	Index       int     `json:"index"`
	Slots       []Slot  `json:"slots"`
	CycleLength float64 `json:"cycle_length"`
	// GroupCost is the channel's F·Z contribution to the paper's
	// grouping cost (Eq. 3), carried over from the allocation at build
	// time so runtime consumers — per-cycle trace spans, renderings —
	// can report it without access to the item frequencies. Zero for
	// hand-assembled programs that never saw an allocation.
	GroupCost float64 `json:"group_cost,omitempty"`
}

// Program is an executable broadcast program.
type Program struct {
	K         int       `json:"k"`
	Bandwidth float64   `json:"bandwidth"`
	Channels  []Channel `json:"channels"`

	// locate[pos] is the {channel, slot index} carrying the item at
	// database position pos. Build and ReadJSON fill it; a valid
	// program schedules every position in [0, len(locate)) once.
	locate [][2]int
}

// SlotOrder selects the ordering of items within a channel cycle. For
// a flat cyclic channel the order does not change any item's average
// waiting time (the probe time to a specific item is uniform over the
// cycle either way); it changes presentation and the instantaneous
// schedule only.
type SlotOrder int

const (
	// ByPosition orders slots by database position (default).
	ByPosition SlotOrder = iota
	// ByFrequency orders slots by descending access frequency.
	ByFrequency
	// BySize orders slots by ascending item size.
	BySize
)

// ErrEmptyProgram is returned when building from a nil allocation.
var ErrEmptyProgram = errors.New("broadcast: nil allocation")

// Build compiles an allocation into a program under the given channel
// bandwidth (size units per second). Every item gets exactly one slot,
// on its allocated channel, per cycle.
func Build(a *core.Allocation, bandwidth float64, order SlotOrder) (*Program, error) {
	if a == nil {
		return nil, ErrEmptyProgram
	}
	if !(bandwidth > 0) || math.IsInf(bandwidth, 0) {
		return nil, fmt.Errorf("broadcast: bandwidth must be positive and finite, got %v", bandwidth)
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("broadcast: %w", err)
	}
	db := a.Database()
	agg := a.Aggregates()
	p := &Program{K: a.K(), Bandwidth: bandwidth, Channels: make([]Channel, a.K())}
	for c := range p.Channels {
		// ByPosition reads the allocation's member list as is; the
		// other orders sort a copy of it.
		group := a.ChannelPositions(c)
		switch order {
		case ByFrequency:
			group = slices.Clone(group)
			keyorder.Stable(group, func(pos int) uint64 { return keyorder.Descending(db.Item(pos).Freq) })
		case BySize:
			group = slices.Clone(group)
			keyorder.Stable(group, func(pos int) uint64 { return keyorder.Ascending(db.Item(pos).Size) })
		}
		ch := Channel{Index: c, Slots: make([]Slot, 0, len(group))}
		var at float64
		for _, pos := range group {
			it := db.Item(pos)
			d := it.Size / bandwidth
			ch.Slots = append(ch.Slots, Slot{
				Pos: pos, ItemID: it.ID, Size: it.Size, Start: at, Duration: d,
			})
			at += d
		}
		ch.CycleLength = at
		ch.GroupCost = agg[c].Cost()
		p.Channels[c] = ch
	}
	p.buildIndex()
	return p, nil
}

func (p *Program) buildIndex() {
	n := 0
	for _, ch := range p.Channels {
		n += len(ch.Slots)
	}
	p.locate = make([][2]int, n)
	for c, ch := range p.Channels {
		for s, slot := range ch.Slots {
			p.locate[slot.Pos] = [2]int{c, s}
		}
	}
}

// Locate returns the channel and slot index carrying the item at
// database position pos. ok is false if the item is not scheduled.
// Only programs from Build or ReadJSON can be located.
func (p *Program) Locate(pos int) (channel, slot int, ok bool) {
	if pos < 0 || pos >= len(p.locate) {
		return 0, 0, false
	}
	loc := p.locate[pos]
	return loc[0], loc[1], true
}

// NextStart returns the absolute time ≥ t at which the item at
// database position pos next begins transmission.
func (p *Program) NextStart(pos int, t float64) (float64, error) {
	start, _, err := p.next(pos, t)
	return start, err
}

// WaitFor returns the full waiting time (probe plus download) of a
// request arriving at time t for the item at database position pos: a
// client tuning in at t receives the item's next complete
// transmission.
func (p *Program) WaitFor(pos int, t float64) (float64, error) {
	start, slot, err := p.next(pos, t)
	if err != nil {
		return 0, err
	}
	return start + slot.Duration - t, nil
}

// next returns the item's slot and the absolute start ≥ t of its next
// transmission.
func (p *Program) next(pos int, t float64) (float64, Slot, error) {
	c, s, ok := p.Locate(pos)
	if !ok {
		return 0, Slot{}, fmt.Errorf("broadcast: item position %d not scheduled", pos)
	}
	ch := p.Channels[c]
	if ch.CycleLength <= 0 {
		return 0, Slot{}, fmt.Errorf("broadcast: channel %d has empty cycle", c)
	}
	slot := ch.Slots[s]
	// Number of whole cycles before t, then the first start ≥ t.
	k := math.Floor((t - slot.Start) / ch.CycleLength)
	start := slot.Start + k*ch.CycleLength
	for start < t {
		start += ch.CycleLength
	}
	return start, slot, nil
}

// Validate checks structural invariants: contiguous slots from zero,
// cycle length equal to the slot sum, durations consistent with the
// bandwidth, and every item position in [0, total slots) and
// scheduled at most once across all channels — the one-slot-per-cycle
// model that ExpectedWait and every consumer of a program assume.
func (p *Program) Validate() error {
	if p.K != len(p.Channels) {
		return fmt.Errorf("broadcast: K=%d but %d channels", p.K, len(p.Channels))
	}
	if !(p.Bandwidth > 0) {
		return fmt.Errorf("broadcast: bandwidth %v", p.Bandwidth)
	}
	total := 0
	for _, ch := range p.Channels {
		total += len(ch.Slots)
	}
	onChannel := make(map[int]int)
	for c, ch := range p.Channels {
		if ch.Index != c {
			return fmt.Errorf("broadcast: channel %d has index %d", c, ch.Index)
		}
		var at float64
		for i, slot := range ch.Slots {
			if slot.Pos < 0 || slot.Pos >= total {
				return fmt.Errorf("broadcast: channel %d slot %d item position %d outside [0, %d)", c, i, slot.Pos, total)
			}
			if prev, ok := onChannel[slot.Pos]; ok {
				return fmt.Errorf("broadcast: item position %d scheduled twice (channels %d and %d)", slot.Pos, prev, c)
			}
			onChannel[slot.Pos] = c
			if math.Abs(slot.Start-at) > 1e-9*(1+at) {
				return fmt.Errorf("broadcast: channel %d slot %d starts at %v, want %v", c, i, slot.Start, at)
			}
			if math.Abs(slot.Duration-slot.Size/p.Bandwidth) > 1e-9*(1+slot.Duration) {
				return fmt.Errorf("broadcast: channel %d slot %d duration %v inconsistent with size %v", c, i, slot.Duration, slot.Size)
			}
			at += slot.Duration
		}
		if math.Abs(ch.CycleLength-at) > 1e-9*(1+at) {
			return fmt.Errorf("broadcast: channel %d cycle %v, slots sum to %v", c, ch.CycleLength, at)
		}
	}
	return nil
}

// Render draws the program as a fixed-width table, one row per slot.
// titles may be nil; when present it maps item IDs to display names.
func (p *Program) Render(titles map[int]string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "broadcast program: %d channels, bandwidth %.3g units/s\n", p.K, p.Bandwidth)
	for _, ch := range p.Channels {
		fmt.Fprintf(&b, "channel %d  (cycle %.3fs, %d items)\n", ch.Index, ch.CycleLength, len(ch.Slots))
		for _, s := range ch.Slots {
			name := fmt.Sprintf("item %d", s.ItemID)
			if t, ok := titles[s.ItemID]; ok {
				name = t
			}
			fmt.Fprintf(&b, "  %8.3fs  +%7.3fs  %-24s size %.3g\n", s.Start, s.Duration, name, s.Size)
		}
	}
	return b.String()
}
