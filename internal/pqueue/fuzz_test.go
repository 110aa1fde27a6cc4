package pqueue

import (
	"sort"
	"testing"
)

// FuzzPQueue drives a Queue[int] with an arbitrary op sequence decoded
// from fuzz bytes and checks every observable result against a naive
// reference that keeps a sorted slice: same pops, same lengths, same
// drain order. Ties are legal inputs — the comparator is
// a strict "<", so among equal elements any pop order is heap-valid;
// the reference therefore only demands equal *values*, which for ints
// is full equality.
//
// Opcode stream (one byte op, one byte operand where needed):
//
//	0: Push(operand)  1: Pop  3: Len
//	5: Drain — then continue with the now-empty queue
//	2, 4: no-ops, reserved so the seed inputs decode unchanged
func FuzzPQueue(f *testing.F) {
	f.Add([]byte{0, 5, 0, 3, 1, 1, 1})           // push 5, push 3, pops past empty
	f.Add([]byte{0, 2, 0, 2, 0, 1, 2, 1, 1, 1})  // duplicates
	f.Add([]byte{0, 9, 0, 1, 5, 0, 4, 2})        // drain then reuse
	f.Add([]byte{3, 2, 1, 4, 5})                 // every op on an empty queue
	f.Add([]byte{0, 255, 0, 0, 0, 128, 1, 1, 1}) // extremes
	f.Fuzz(func(t *testing.T, data []byte) {
		q := New(func(a, b int) bool { return a < b })
		var ref []int // kept ascending; ref[0] is the min

		refPush := func(v int) {
			i := sort.SearchInts(ref, v)
			ref = append(ref, 0)
			copy(ref[i+1:], ref[i:])
			ref[i] = v
		}
		refPop := func() (int, bool) {
			if len(ref) == 0 {
				return 0, false
			}
			v := ref[0]
			ref = ref[1:]
			return v, true
		}

		for i := 0; i < len(data); i++ {
			switch data[i] % 6 {
			case 0: // Push
				i++
				if i >= len(data) {
					return
				}
				v := int(data[i])
				q.Push(v)
				refPush(v)
			case 1: // Pop
				got, ok := q.Pop()
				want, wok := refPop()
				if ok != wok || got != want {
					t.Fatalf("op %d: Pop = (%d,%v), reference = (%d,%v)", i, got, ok, want, wok)
				}
			case 3: // Len
				if q.Len() != len(ref) {
					t.Fatalf("op %d: Len = %d, reference = %d", i, q.Len(), len(ref))
				}
			case 2, 4: // reserved no-ops
			case 5: // Drain must yield the full ascending order
				got := q.Drain()
				if len(got) != len(ref) {
					t.Fatalf("op %d: Drain yielded %d elements, reference %d", i, len(got), len(ref))
				}
				for j := range got {
					if got[j] != ref[j] {
						t.Fatalf("op %d: Drain order differs at %d: %d vs %d", i, j, got[j], ref[j])
					}
				}
				if q.Len() != 0 {
					t.Fatalf("op %d: queue non-empty after Drain: %d", i, q.Len())
				}
				ref = ref[:0]
			}
		}

		// Whatever remains must drain in exactly ascending order — the
		// heap invariant held across the whole interleaving.
		final := q.Drain()
		if len(final) != len(ref) {
			t.Fatalf("final Drain yielded %d elements, reference %d", len(final), len(ref))
		}
		for j := range final {
			if final[j] != ref[j] {
				t.Fatalf("final Drain differs at %d: %d vs %d", j, final[j], ref[j])
			}
		}
	})
}
