package core

import (
	"errors"
	"testing"
)

func TestNewAllocationValidation(t *testing.T) {
	db := MustNewDatabase([]Item{
		{ID: 1, Freq: 0.3, Size: 1},
		{ID: 2, Freq: 0.3, Size: 2},
		{ID: 3, Freq: 0.4, Size: 3},
	})
	tests := []struct {
		name    string
		k       int
		channel []int
		wantErr error
	}{
		{"k too small", 0, []int{0, 0, 0}, ErrBadChannelCount},
		{"k exceeds n", 4, []int{0, 1, 2}, ErrBadChannelCount},
		{"short assignment", 2, []int{0, 1}, ErrWrongLength},
		{"long assignment", 2, []int{0, 1, 0, 1}, ErrWrongLength},
		{"channel too high", 2, []int{0, 1, 2}, ErrChannelRange},
		{"channel negative", 2, []int{0, -1, 1}, ErrChannelRange},
		{"valid", 2, []int{0, 1, 0}, nil},
		{"valid with empty channel", 3, []int{0, 0, 2}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a, err := NewAllocation(db, tt.k, tt.channel)
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("error = %v, want %v", err, tt.wantErr)
			}
			if err == nil {
				if verr := a.Validate(); verr != nil {
					t.Fatalf("Validate after NewAllocation: %v", verr)
				}
			}
		})
	}
}

func TestAllocationCopiesAssignment(t *testing.T) {
	db := MustNewDatabase([]Item{{ID: 1, Freq: 0.5, Size: 1}, {ID: 2, Freq: 0.5, Size: 2}})
	channel := []int{0, 1}
	a, err := NewAllocation(db, 2, channel)
	if err != nil {
		t.Fatal(err)
	}
	channel[0] = 1
	if a.ChannelOf(0) != 0 {
		t.Fatal("NewAllocation aliased caller slice")
	}
	out := a.Assignment()
	out[1] = 0
	if a.ChannelOf(1) != 1 {
		t.Fatal("Assignment aliased internal slice")
	}
}

func TestGroupsAndAggregates(t *testing.T) {
	db := MustNewDatabase([]Item{
		{ID: 1, Freq: 0.1, Size: 10},
		{ID: 2, Freq: 0.2, Size: 20},
		{ID: 3, Freq: 0.3, Size: 30},
		{ID: 4, Freq: 0.4, Size: 40},
	})
	a, err := NewAllocation(db, 2, []int{0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}

	groups := a.Groups()
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	if len(groups[0]) != 2 || groups[0][0] != 0 || groups[0][1] != 2 {
		t.Errorf("group 0 = %v, want [0 2]", groups[0])
	}
	if len(groups[1]) != 2 || groups[1][0] != 1 || groups[1][1] != 3 {
		t.Errorf("group 1 = %v, want [1 3]", groups[1])
	}

	agg := a.Aggregates()
	if agg[0].F != 0.4 || agg[0].Z != 40 || agg[0].N != 2 {
		t.Errorf("agg[0] = %+v, want {F:0.4 Z:40 N:2}", agg[0])
	}
	if agg[1].N != 2 || agg[1].Z != 60 {
		t.Errorf("agg[1] = %+v, want Z=60 N=2", agg[1])
	}
	if got, want := agg[0].Cost(), 0.4*40.0; got != want {
		t.Errorf("agg[0].Cost = %v, want %v", got, want)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	db := PaperExampleDatabase()
	a := randomAllocation(t, db, 4, 1)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not Equal to original")
	}
	b.move(0, (a.ChannelOf(0)+1)%4)
	if a.Equal(b) {
		t.Fatal("mutating clone affected original (or Equal is broken)")
	}
	if a.ChannelOf(0) == b.ChannelOf(0) {
		t.Fatal("clone shares channel slice with original")
	}
}

func TestEqual(t *testing.T) {
	db := PaperExampleDatabase()
	other := PaperExampleDatabase()
	a := randomAllocation(t, db, 3, 7)
	b := randomAllocation(t, db, 3, 7)
	if !a.Equal(b) {
		t.Error("identically-seeded allocations differ")
	}
	// Same assignment over a different Database value is not Equal:
	// allocations are tied to their database identity.
	c, err := NewAllocation(other, 3, a.Assignment())
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Error("allocations over distinct databases compare Equal")
	}
}

func TestEmptyChannelsAreLegal(t *testing.T) {
	db := MustNewDatabase([]Item{
		{ID: 1, Freq: 0.5, Size: 1},
		{ID: 2, Freq: 0.5, Size: 2},
	})
	a, err := NewAllocation(db, 2, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	agg := a.Aggregates()
	if agg[1].N != 0 || agg[1].Cost() != 0 {
		t.Fatalf("empty channel agg = %+v, want zero", agg[1])
	}
	if got := Cost(a); got != 1.0*3.0 {
		t.Fatalf("cost = %v, want 3", got)
	}
}
