// Corpus: ABBA lock-order inversion. AB takes a then b, BA takes b
// then a — interleaved goroutines deadlock holding one lock each.
// The duo pair exercises the interprocedural path: CD reaches d
// through the lockD helper (a net-acquire summary), and lockD itself
// inherits c from its only caller (EntryHeld), so both the call site
// and the helper's own Lock line carry the inverted pair. The other
// pair is taken in one consistent order everywhere and stays quiet.
package order

import "sync"

type system struct {
	a, b sync.Mutex
}

func (s *system) AB() {
	s.a.Lock()
	s.b.Lock() // want `system\.b is acquired while system\.a is held`
	s.b.Unlock()
	s.a.Unlock()
}

func (s *system) BA() {
	s.b.Lock()
	s.a.Lock() // want `system\.a is acquired while system\.b is held`
	s.a.Unlock()
	s.b.Unlock()
}

type duo struct {
	c, d sync.Mutex
}

func (t *duo) CD() {
	t.c.Lock()
	t.lockD() // want `duo\.d is acquired \(via .*lockD\) while duo\.c is held`
	t.d.Unlock()
	t.c.Unlock()
}

func (t *duo) DC() {
	t.d.Lock()
	t.c.Lock() // want `duo\.c is acquired while duo\.d is held`
	t.c.Unlock()
	t.d.Unlock()
}

func (t *duo) lockD() {
	t.d.Lock() // want `duo\.d is acquired while duo\.c is held`
}

type other struct {
	x, y sync.Mutex
}

func (o *other) One() {
	o.x.Lock()
	o.y.Lock()
	o.y.Unlock()
	o.x.Unlock()
}

func (o *other) Two() {
	o.x.Lock()
	o.y.Lock()
	o.y.Unlock()
	o.x.Unlock()
}

// Seed lockorder-1 (internal/analysis/testdata/mutations): a caster
// registers subscribers holding its own lock and reads the ring head
// through headSeq, which takes the ring lock; publish takes the ring
// lock first to snapshot the subscriber count. headSeq is also called
// from a test without any lock, which must not hide the production
// order (order_test.go).
type ring struct {
	mu   sync.Mutex
	head uint64
}

func (r *ring) headSeq() uint64 {
	r.mu.Lock() // want `ring\.mu is acquired while caster\.mu is held`
	defer r.mu.Unlock()
	return r.head
}

type caster struct {
	mu   sync.Mutex
	subs int
	ring *ring
}

func (c *caster) add() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.subs++
	return c.ring.headSeq()
}

func (c *caster) publish() int {
	c.ring.mu.Lock()
	c.mu.Lock() // want `caster\.mu is acquired while ring\.mu is held`
	n := c.subs
	c.mu.Unlock()
	c.ring.mu.Unlock()
	return n
}

// Seed lockorder-2: a cost monitor's sampler takes its sample lock and
// then the program lock to read a consistent program, while a program
// swap holds the program lock and takes the sample lock to reset the
// drift episode. The tests never run the two at once.
type monitor struct {
	setMu, sampleMu sync.Mutex
	exceeded        bool
}

func (m *monitor) Sample() {
	m.sampleMu.Lock()
	defer m.sampleMu.Unlock()
	m.setMu.Lock() // want `monitor\.setMu is acquired while monitor\.sampleMu is held`
	m.setMu.Unlock()
}

func (m *monitor) SetProgram() {
	m.setMu.Lock()
	defer m.setMu.Unlock()
	m.sampleMu.Lock() // want `monitor\.sampleMu is acquired while monitor\.setMu is held`
	m.exceeded = false
	m.sampleMu.Unlock()
}
