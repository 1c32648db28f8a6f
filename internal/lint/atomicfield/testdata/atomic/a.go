package a

import "sync/atomic"

// counters mixes function-style atomics (hits, misses), an explicitly
// marked field (gen), a wrapper-typed field (seq), and a plain field.
type counters struct {
	hits   int64
	misses int64
	// gen is only ever touched through aliased pointers the collector
	// cannot see, so it carries the explicit mark.
	gen   int64 //sfa:atomic
	seq   atomic.Uint64
	plain int64
}

// record is the discipline-defining use: addresses of hits and misses
// feed sync/atomic, which is what puts them in the atomic set.
func (c *counters) record() {
	atomic.AddInt64(&c.hits, 1)
	atomic.StoreInt64(&c.misses, 0)
}

func (c *counters) load() int64 {
	return atomic.LoadInt64(&c.hits) + int64(c.seq.Load()) // wrapper method calls are fine
}

func (c *counters) torn() int64 {
	c.misses++  // want `plain access to atomic field a\.counters\.misses`
	x := c.hits // want `plain access to atomic field a\.counters\.hits`
	y := c.gen  // want `plain access to atomic field a\.counters\.gen`
	c.plain = 7
	return x + y + c.plain
}

func escape(c *counters) *int64 {
	return &c.hits // want `plain access to atomic field a\.counters\.hits`
}

// fresh constructs an unpublished value: plain writes are safe and the
// waiver says so.
//
//sfa:atomicok
func fresh() *counters {
	c := &counters{}
	c.hits = 0
	c.gen = 1
	return c
}

func (c *counters) cas() bool {
	return atomic.CompareAndSwapInt64(&c.misses, 0, 1)
}

func (c *counters) loadSeq() uint64 {
	return c.seq.Load()
}
