package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Hierarchical byte budgets for lazily-materialized automaton tables.
//
// The eager engines size their tables at compile time and reject rule
// sets whose automata would not fit; the lazy engines (LazyTuple) grow
// tables *during* scanning, so the bound has to move from construction
// time to run time. TableBudget is that bound: a tree of byte counters —
// process root, per-tenant children — that every lazy structure charges
// its table pages against. When a charge would exceed any level's limit,
// the structure spills its in-flight scan state, asks the root to make
// room by evicting the least-recently-used registered structure (whole-
// structure reset — the cache-granularity LRU approximation RE2's DFA
// cache uses), and re-enters. See docs/memory-model.md for the full
// contract.
//
// Concurrency: charges and releases are lock-free atomics on the chain
// of counters, so the scan hot path never takes a lock for accounting.
// Only MakeRoom — the slow path that runs evictions — serializes, on the
// root's mutex. Deadlock freedom rests on one rule the lazy walkers
// obey: never wait on the root mutex while holding your own structure's
// read lock (spill and release first).

// ErrTableBudget is wrapped by lazy-construction errors when a table
// budget is exhausted. The lazy walkers never surface it to callers —
// they evict and re-enter — but it separates "make room and retry" from
// genuine failures inside the construction path.
var ErrTableBudget = errors.New("core: table budget exhausted")

// Evictable is a lazily-built structure the budget may reset to
// reclaim bytes. BudgetEvict must drop the structure's materialized
// states, release their bytes through the structure's handle, and
// return the number of bytes it released. It is called without any of
// the structure's locks held (it takes its own write lock) but with the
// root budget's mutex held, so it must not call MakeRoom.
type Evictable interface {
	BudgetEvict() int64
}

// TableBudget is one node of the budget tree. A zero or negative limit
// means "unlimited at this level" — the node still accounts usage and
// still routes charges to its parent, so an unlimited tenant budget
// under a limited process budget behaves as pure metering.
type TableBudget struct {
	parent    *TableBudget
	limit     atomic.Int64
	used      atomic.Int64
	fills     atomic.Int64 // lazy states materialized under this node
	evictions atomic.Int64 // structure resets charged to this node

	// Latency observability, recorded up the chain like the counters:
	// fillNs is the cost of materializing one lazy state (the slow-step
	// walk that interns a tuple), evictNs the cost of one structure
	// reset, and stallNs the total wall time scans spent inside
	// MakeRoom — the "budget pressure converted to latency" number.
	fillNs  obs.Histogram
	evictNs obs.Histogram
	stallNs obs.Counter

	// Eviction registry — maintained on the root node only.
	mu      sync.Mutex
	clock   atomic.Int64
	members []*BudgetHandle
}

// NewTableBudget returns a root budget. limit ≤ 0 means unlimited.
func NewTableBudget(limit int64) *TableBudget {
	b := &TableBudget{}
	b.limit.Store(limit)
	return b
}

// Child returns a sub-budget charged against b: a charge must fit the
// child AND every ancestor. limit ≤ 0 makes the child pure metering.
func (b *TableBudget) Child(limit int64) *TableBudget {
	c := &TableBudget{parent: b}
	c.limit.Store(limit)
	return c
}

// SetLimit replaces the node's byte limit (≤ 0 = unlimited). Lowering
// it below current usage does not evict anything by itself; the next
// charge that misses will.
func (b *TableBudget) SetLimit(limit int64) { b.limit.Store(limit) }

// BudgetStats is a point-in-time snapshot of one budget node.
type BudgetStats struct {
	Limit     int64 // configured byte limit; ≤ 0 = unlimited
	Used      int64 // bytes currently charged (including descendants)
	Fills     int64 // lazy states materialized under this node
	Evictions int64 // structure resets under this node

	FillNs  obs.HistogramSnapshot // per-state materialization latency
	EvictNs obs.HistogramSnapshot // per-reset eviction latency
	StallNs int64                 // total scan time spent waiting in MakeRoom
}

// Stats snapshots the node's counters.
func (b *TableBudget) Stats() BudgetStats {
	return BudgetStats{
		Limit:     b.limit.Load(),
		Used:      b.used.Load(),
		Fills:     b.fills.Load(),
		Evictions: b.evictions.Load(),
		FillNs:    b.fillNs.Snapshot(),
		EvictNs:   b.evictNs.Snapshot(),
		StallNs:   b.stallNs.Load(),
	}
}

func (b *TableBudget) root() *TableBudget {
	r := b
	for r.parent != nil {
		r = r.parent
	}
	return r
}

// tryCharge attempts to add n bytes at this node and every ancestor,
// rolling back completely when any level would exceed its limit.
func (b *TableBudget) tryCharge(n int64) bool {
	for x := b; x != nil; x = x.parent {
		// Add first: an unlimited level still meters what it holds.
		if used, lim := x.used.Add(n), x.limit.Load(); lim > 0 && used > lim {
			for y := b; ; y = y.parent {
				y.used.Add(-n)
				if y == x {
					break
				}
			}
			return false
		}
	}
	return true
}

// forceCharge adds n bytes unconditionally (the grace path: progress
// must never deadlock on a budget smaller than one working set).
func (b *TableBudget) forceCharge(n int64) {
	for x := b; x != nil; x = x.parent {
		x.used.Add(n)
	}
}

func (b *TableBudget) release(n int64) {
	for x := b; x != nil; x = x.parent {
		x.used.Add(-n)
	}
}

func (b *TableBudget) noteFill() {
	for x := b; x != nil; x = x.parent {
		x.fills.Add(1)
	}
}

func (b *TableBudget) noteEviction() {
	for x := b; x != nil; x = x.parent {
		x.evictions.Add(1)
	}
}

func (b *TableBudget) observeFill(ns int64) {
	for x := b; x != nil; x = x.parent {
		x.fillNs.Observe(ns)
	}
}

func (b *TableBudget) observeEvict(ns int64) {
	for x := b; x != nil; x = x.parent {
		x.evictNs.Observe(ns)
	}
}

func (b *TableBudget) addStall(ns int64) {
	for x := b; x != nil; x = x.parent {
		x.stallNs.Add(ns)
	}
}

// BudgetHandle ties one Evictable structure to the budget node it
// charges. All byte accounting of the structure flows through its
// handle, which is how per-structure residency (Used) and the grace
// floor are tracked.
type BudgetHandle struct {
	b     *TableBudget
	root  *TableBudget
	e     Evictable
	used  atomic.Int64
	grace int64
	last  atomic.Int64
	dead  atomic.Bool
}

// Register creates a handle charging b and enters e into the root's
// eviction registry. grace is the byte floor below which charges always
// succeed regardless of limits: it must cover the structure's minimal
// working set (identity pages plus one growth page per table) so that a
// freshly-evicted structure can always re-enter and make progress. The
// documented RSS bound is therefore limit plus the grace floors of the
// structures actively scanning.
func (b *TableBudget) Register(e Evictable, grace int64) *BudgetHandle {
	h := &BudgetHandle{b: b, root: b.root(), e: e, grace: grace}
	r := h.root
	r.mu.Lock()
	r.pruneLocked()
	r.members = append(r.members, h)
	r.mu.Unlock()
	h.Touch()
	return h
}

// pruneLocked drops closed handles from the registry. Caller holds mu.
func (r *TableBudget) pruneLocked() {
	live := r.members[:0]
	for _, h := range r.members {
		if !h.dead.Load() {
			live = append(live, h)
		}
	}
	r.members = live
}

// Close releases the handle's remaining bytes and removes it from the
// eviction registry. Safe to call more than once.
func (h *BudgetHandle) Close() {
	if h == nil || h.dead.Swap(true) {
		return
	}
	h.b.release(h.used.Swap(0))
}

// Touch marks the structure recently used for LRU victim selection.
func (h *BudgetHandle) Touch() {
	if h == nil {
		return
	}
	h.last.Store(h.root.clock.Add(1))
}

// Used returns the bytes currently charged through this handle.
func (h *BudgetHandle) Used() int64 {
	if h == nil {
		return 0
	}
	return h.used.Load()
}

// TryCharge attempts to charge n bytes. Charges within the grace floor
// bypass the limits (see Register); all others must fit every level of
// the budget chain. Lock-free.
func (h *BudgetHandle) TryCharge(n int64) bool {
	if h == nil {
		return true
	}
	if h.used.Load()+n <= h.grace {
		h.b.forceCharge(n)
		h.used.Add(n)
		return true
	}
	if h.b.tryCharge(n) {
		h.used.Add(n)
		return true
	}
	return false
}

// Release returns n bytes to the budget chain.
func (h *BudgetHandle) Release(n int64) {
	if h == nil || n == 0 {
		return
	}
	h.b.release(n)
	h.used.Add(-n)
}

// NoteFill bumps the fill counters up the chain (one lazy state
// materialized).
func (h *BudgetHandle) NoteFill() {
	if h == nil {
		return
	}
	h.b.noteFill()
}

// NoteEviction bumps the eviction counters up the chain.
func (h *BudgetHandle) NoteEviction() {
	if h == nil {
		return
	}
	h.b.noteEviction()
}

// ObserveFill records the latency of one lazy state materialization
// into the fill histograms up the chain.
func (h *BudgetHandle) ObserveFill(ns int64) {
	if h == nil {
		return
	}
	h.b.observeFill(ns)
}

// MakeRoom evicts registered structures in least-recently-used order —
// possibly including the caller's own — until a charge of n bytes
// through this handle could succeed or every structure has been reset
// once. The caller must hold none of its structure's locks (spill
// first); on return it re-enters and charges, falling back to the grace
// floor if competing fills consumed the freed room.
func (h *BudgetHandle) MakeRoom(n int64) {
	if h == nil {
		return
	}
	start := time.Now()
	defer func() { h.b.addStall(time.Since(start).Nanoseconds()) }()
	r := h.root
	r.mu.Lock()
	defer r.mu.Unlock()
	if h.roomFor(n) {
		return
	}
	r.pruneLocked()
	// Snapshot in LRU order; each victim is evicted at most once per
	// MakeRoom call, so the loop terminates even when a victim's floor
	// keeps its usage nonzero.
	victims := make([]*BudgetHandle, len(r.members))
	copy(victims, r.members)
	for i := 1; i < len(victims); i++ {
		for j := i; j > 0 && victims[j].last.Load() < victims[j-1].last.Load(); j-- {
			victims[j], victims[j-1] = victims[j-1], victims[j]
		}
	}
	for _, v := range victims {
		if v.dead.Load() || v.used.Load() == 0 {
			continue
		}
		t0 := time.Now()
		v.e.BudgetEvict() // counts its own eviction through v
		v.b.observeEvict(time.Since(t0).Nanoseconds())
		if h.roomFor(n) {
			return
		}
	}
}

// roomFor probes whether a charge of n would currently succeed.
func (h *BudgetHandle) roomFor(n int64) bool {
	if h.b.tryCharge(n) {
		h.b.release(n)
		return true
	}
	return false
}

var (
	globalBudgetOnce sync.Once
	globalBudget     *TableBudget
)

// GlobalTableBudget returns the process-wide root budget shared by every
// lazy structure not given an explicit budget. It starts unlimited;
// callers arm it with SetLimit.
func GlobalTableBudget() *TableBudget {
	globalBudgetOnce.Do(func() { globalBudget = NewTableBudget(0) })
	return globalBudget
}
