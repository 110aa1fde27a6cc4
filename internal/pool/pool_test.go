package pool

import (
	"sync/atomic"
	"testing"
)

func TestRunCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 8, 64} {
		for _, n := range []int{0, 1, 7, 100, 1000} {
			hits := make([]int32, n)
			Run(workers, n, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d executed %d times, want 1", workers, n, i, h)
				}
			}
		}
	}
}

func TestRunSerialPreservesOrder(t *testing.T) {
	var got []int
	Run(1, 5, func(i int) { got = append(got, i) })
	for i, v := range got {
		if v != i {
			t.Fatalf("serial Run visited %v, want ascending order", got)
		}
	}
	if len(got) != 5 {
		t.Fatalf("serial Run visited %d indices, want 5", len(got))
	}
}
