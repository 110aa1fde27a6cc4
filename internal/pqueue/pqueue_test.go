package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	q := New(func(a, b int) bool { return a < b })
	if q.Len() != 0 {
		t.Fatalf("empty queue Len = %d", q.Len())
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
	if got := q.Drain(); len(got) != 0 {
		t.Fatalf("Drain on empty queue returned %v", got)
	}
}

func TestMinQueueOrdering(t *testing.T) {
	q := New(func(a, b int) bool { return a < b })
	for _, v := range []int{5, 3, 8, 1, 9, 2} {
		q.Push(v)
	}
	want := []int{1, 2, 3, 5, 8, 9}
	for i, w := range want {
		got, ok := q.Pop()
		if !ok || got != w {
			t.Fatalf("pop %d: got %d (%v), want %d", i, got, ok, w)
		}
	}
}

func TestMaxQueueOrdering(t *testing.T) {
	q := New(func(a, b int) bool { return a > b })
	for _, v := range []int{5, 3, 8, 1, 9, 2} {
		q.Push(v)
	}
	got := q.Drain()
	want := []int{9, 8, 5, 3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Drain = %v, want %v", got, want)
		}
	}
}

func TestInterleavedPushPop(t *testing.T) {
	q := New(func(a, b int) bool { return a < b })
	q.Push(10)
	q.Push(1)
	if v, _ := q.Pop(); v != 1 {
		t.Fatalf("got %d, want 1", v)
	}
	q.Push(0)
	q.Push(20)
	if v, _ := q.Pop(); v != 0 {
		t.Fatalf("got %d, want 0", v)
	}
	if v, _ := q.Pop(); v != 10 {
		t.Fatalf("got %d, want 10", v)
	}
	if v, _ := q.Pop(); v != 20 {
		t.Fatalf("got %d, want 20", v)
	}
}

func TestStructElements(t *testing.T) {
	type task struct {
		name string
		prio float64
	}
	q := New(func(a, b task) bool { return a.prio > b.prio })
	q.Push(task{"low", 1})
	q.Push(task{"high", 10})
	q.Push(task{"mid", 5})
	if v, _ := q.Pop(); v.name != "high" {
		t.Fatalf("got %q, want high", v.name)
	}
}

// Property: draining always yields a sorted sequence equal to the
// multiset of pushed values.
func TestDrainSortsArbitraryInput(t *testing.T) {
	check := func(vals []float64) bool {
		q := New(func(a, b float64) bool { return a < b })
		for _, v := range vals {
			q.Push(v)
		}
		got := q.Drain()
		want := append([]float64(nil), vals...)
		sort.Float64s(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeRandomWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := New(func(a, b int) bool { return a < b })
	const n = 5000
	pushed := make([]int, n)
	for i := range pushed {
		pushed[i] = rng.Intn(1000)
		q.Push(pushed[i])
	}
	prev := -1
	for i := 0; i < n; i++ {
		v, ok := q.Pop()
		if !ok {
			t.Fatalf("queue ran dry at %d", i)
		}
		if v < prev {
			t.Fatalf("out of order: %d after %d", v, prev)
		}
		prev = v
	}
}

func BenchmarkPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := New(func(a, b float64) bool { return a < b })
		for _, v := range vals {
			q.Push(v)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
}
