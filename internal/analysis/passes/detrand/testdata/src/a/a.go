// Corpus for detrand: time/rand/map-order taint must not reach
// accumulation, comparators, or task closures.
package a

import (
	"math/rand"
	"sort"
	"time"
)

func use(v any) { _ = v }

// Flagged: wall-clock delta folded into a float cost.
func jitterCost(costs []float64) float64 {
	total := 0.0
	for range costs {
		dt := float64(time.Now().UnixNano())
		total += dt // want `accumulates a value derived from time\.Now`
	}
	return total
}

// Flagged: the global rand source perturbing a cost, including through
// an intermediate variable and the spelled-out accumulation form.
func noisyCost(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		noise := rand.Float64()
		t = t + x*noise // want `accumulates a value derived from the global math/rand source`
	}
	return t
}

// Clean: the seeded-rng threading idiom this pass asks for.
func seededCost(xs []float64, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	t := 0.0
	for _, x := range xs {
		t += x * rng.Float64()
	}
	return t
}

// Clean: integer time accounting is not a float sink.
func elapsedNs(start time.Time) int64 {
	var total int64
	total += time.Now().UnixNano() - start.UnixNano()
	return total
}

// Flagged: a comparator whose ordering depends on the clock.
func sortByAge(xs []int64) {
	now := time.Now().UnixNano()
	sort.Slice(xs, func(i, j int) bool {
		return xs[i]-now < xs[j]-now // want `comparator result depends on time\.Now`
	})
}

// Flagged: random tie-breaking inside a comparator.
func shuffledSort(xs []int) {
	sort.Slice(xs, func(i, j int) bool {
		if xs[i] == xs[j] {
			return rand.Intn(2) == 0 // want `comparator result depends on the global math/rand source`
		}
		return xs[i] < xs[j]
	})
}

// Flagged: the current map-iteration key leaking into a sort order.
func iterSort(m map[string]int, keys []string) {
	for k := range m {
		sort.Slice(keys, func(i, j int) bool {
			if keys[i] == keys[j] {
				return keys[i] < k // want `comparator result depends on map iteration order`
			}
			return keys[i] < keys[j]
		})
	}
}

// queue takes its ordering as a value, as internal/pqueue.New does.
type queue[T any] struct{ less func(a, b T) bool }

func newQueue[T any](less func(a, b T) bool) *queue[T] { return &queue[T]{less: less} }

type split struct {
	key float64
	lo  int
}

// Flagged: seed detrand-2 (internal/analysis/testdata/mutations), a
// random tie-break in DRP's split-queue comparator, which reaches the
// queue as a func(a, b T) bool argument rather than through sort.
func randomTieQueue() *queue[split] {
	return newQueue(func(a, b split) bool {
		if a.key != b.key {
			return a.key > b.key
		}
		return rand.Intn(2) == 0 // want `comparator result depends on the global math/rand source`
	})
}

// Clean: the same queue breaking ties by range start.
func stableTieQueue() *queue[split] {
	return newQueue(func(a, b split) bool {
		if a.key != b.key {
			return a.key > b.key
		}
		return a.lo < b.lo
	})
}

// Clean: a deterministic comparator, and a Less method reading only
// stable fields.
func sortPlain(xs []int) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

type byID struct{ ids []int }

func (b byID) Len() int           { return len(b.ids) }
func (b byID) Swap(i, j int)      { b.ids[i], b.ids[j] = b.ids[j], b.ids[i] }
func (b byID) Less(i, j int) bool { return b.ids[i] < b.ids[j] }

// Flagged: a task closure capturing a wall-clock stamp — pooled tasks
// replay in a different interleaving every run.
func submitAll(run func(func())) {
	stamp := time.Now()
	run(func() { // want `task closure captures "stamp"`
		use(stamp)
	})
}

// Flagged: the same capture through a go statement.
func spawn() {
	seed := rand.Int63()
	go func() { // want `task closure captures "seed"`
		use(seed)
	}()
}

// Clean: deferred closures run once, in this goroutine, in a
// deterministic order.
func timed() {
	start := time.Now()
	defer func() {
		use(time.Since(start))
	}()
}

// Clean: a task closure over deterministic inputs.
func submitPlain(run func(func()), xs []float64) {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	run(func() {
		use(sum)
	})
}
