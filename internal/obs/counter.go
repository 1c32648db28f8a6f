package obs

import (
	"sync/atomic"
	"unsafe"
)

// counterShards is the number of cache-line-padded stripes a Counter
// spreads its increments over. Must be a power of two. Eight stripes ×
// 64 bytes keeps a Counter at 512 bytes — cheap enough to embed freely
// — while removing the single-cache-line ping-pong that a lone
// atomic.Int64 suffers when every pool worker increments it per chunk.
const counterShards = 8

// padded is one counter stripe on its own cache line so neighbouring
// stripes never false-share.
type padded struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing sharded counter. The zero value
// is ready to use. Add/Inc are wait-free single atomic adds and never
// allocate; Load sums the stripes (monotone but relaxed — it may miss
// increments that race with it, never double-count).
type Counter struct {
	shards [counterShards]padded
}

// stripe picks a stripe from the address of a stack local. Goroutine
// stacks are spread across the address space, so concurrent goroutines
// land on different stripes with high probability; a collision costs
// contention, never correctness. The whole expression stays on the
// stack — no allocation, no goroutine id lookup.
func stripe() int {
	var b byte
	return int(uintptr(unsafe.Pointer(&b))>>10) & (counterShards - 1)
}

// Add adds n to the counter. n must be ≥ 0 (Counter is monotone; use
// Gauge for values that go down).
//
//sfa:noalloc
func (c *Counter) Add(n int64) {
	c.shards[stripe()].v.Add(n)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current sum across stripes.
func (c *Counter) Load() int64 {
	var s int64
	for i := range c.shards {
		s += c.shards[i].v.Load()
	}
	return s
}

// Gauge is a single instantaneous value (queue depth, resident bytes).
// The zero value is ready to use. Unlike Counter it is not sharded:
// gauges are written from one place or rarely, read often.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Max raises the gauge to v if v is greater (a relaxed high-water
// mark: concurrent racers may briefly publish a lower value, the final
// state converges to the maximum observed).
func (g *Gauge) Max(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}
