// Package pqueue provides a small generic priority queue built on
// container/heap. The DRP allocator uses it as a max-queue of groups
// keyed by cost.
package pqueue

import "container/heap"

// Queue is a priority queue over elements of type T. The zero value is
// not usable; construct one with New. Queue is not safe for concurrent
// use.
type Queue[T any] struct {
	h *inner[T]
}

// New returns an empty queue that pops the element for which less
// orders it before every other element. For a min-queue pass a "<"
// comparison; for a max-queue pass ">".
func New[T any](less func(a, b T) bool) *Queue[T] {
	return &Queue[T]{h: &inner[T]{less: less}}
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.h.elems) }

// Push adds v to the queue.
func (q *Queue[T]) Push(v T) { heap.Push(q.h, v) }

// Pop removes and returns the highest-priority element. The boolean is
// false if the queue is empty.
func (q *Queue[T]) Pop() (T, bool) {
	if len(q.h.elems) == 0 {
		var zero T
		return zero, false
	}
	return heap.Pop(q.h).(T), true
}

// Drain removes and returns all elements in priority order.
func (q *Queue[T]) Drain() []T {
	out := make([]T, 0, q.Len())
	for {
		v, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// inner implements heap.Interface.
type inner[T any] struct {
	elems []T
	less  func(a, b T) bool
}

func (h *inner[T]) Len() int           { return len(h.elems) }
func (h *inner[T]) Less(i, j int) bool { return h.less(h.elems[i], h.elems[j]) }
func (h *inner[T]) Swap(i, j int)      { h.elems[i], h.elems[j] = h.elems[j], h.elems[i] }

func (h *inner[T]) Push(x any) { h.elems = append(h.elems, x.(T)) }

func (h *inner[T]) Pop() any {
	old := h.elems
	n := len(old)
	v := old[n-1]
	var zero T
	old[n-1] = zero
	h.elems = old[:n-1]
	return v
}
