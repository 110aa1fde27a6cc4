package broadcast

import (
	"bytes"
	"strings"
	"testing"

	"diversecast/internal/core"
)

// FuzzReadJSON throws arbitrary bytes at the program loader: it must
// never panic, and any program it accepts must validate and support
// schedule queries without panicking.
func FuzzReadJSON(f *testing.F) {
	// Seed with a real program.
	db := core.PaperExampleDatabase()
	a, err := core.NewDRP().Allocate(db, 3)
	if err != nil {
		f.Fatal(err)
	}
	p, err := Build(a, 10, ByPosition)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"k":0,"bandwidth":0,"channels":[]}`)
	f.Add(`{"k":1,"bandwidth":10,"channels":[{"index":0,"slots":[],"cycle_length":0}]}`)
	f.Add(twiceScheduled)
	f.Add(`garbage`)

	f.Fuzz(func(t *testing.T, in string) {
		loaded, err := ReadJSON(strings.NewReader(in))
		if err != nil {
			return
		}
		if err := loaded.Validate(); err != nil {
			t.Fatalf("ReadJSON accepted an invalid program: %v", err)
		}
		// Schedule queries must be total for scheduled positions.
		for _, ch := range loaded.Channels {
			for _, slot := range ch.Slots {
				if _, err := loaded.WaitFor(slot.Pos, 123.456); err != nil {
					t.Fatalf("WaitFor failed on scheduled item: %v", err)
				}
			}
		}
	})
}
