package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/dfa"
)

// Lazy is a thread-safe on-the-fly D-SFA: states are transformation
// vectors like DSFA's, but they are discovered during matching instead of
// ahead of it — the paper's Sect. V-A observes that "on-the-fly
// construction generates states one by one after reading symbols, so it
// generates at most n states for input text of length n even if the
// number of states in DFA explodes", and that it applies directly to SFA
// because the correspondence construction extends the subset construction.
//
// Concurrency design: transition entries start at -1 (unknown) and are
// read with atomic loads. A miss takes the construction mutex, interns the
// target mapping (possibly allocating a new state), and publishes the
// entry with an atomic store. Because a state id can only be learned
// through such a published entry (or by being the start state), the
// release/acquire pairing of the atomic store/load makes the state's row
// and mapping vector visible to every reader — no lock on the hot path.
//
// State storage is paged so that pages, once allocated, never move; the
// page directory grows on demand (pageDir), so an automaton that
// materializes a handful of states holds a handful of directory entries
// — not one per page its state cap would allow.
//
// A Lazy is a component of a LazyTuple and charges its pages through the
// tuple's *BudgetHandle, which its components share: a page allocation
// fails with ErrTableBudget when the budget is exhausted, and the tuple
// drops and re-initializes the structure to give the bytes back.
type Lazy struct {
	D *dfa.DFA

	nc       int
	n        int // vector length
	maxState int32
	h        *BudgetHandle

	mu        sync.Mutex
	numStates atomic.Int32
	ids       map[uint64][]int32
	bytes     int64   // bytes charged for pages and directory entries (under mu)
	scratch   []int16 // successor / identity vector being interned (under mu)

	pages pageDir[lazyPage] // index = id >> lazyPageBits

	start int32
}

// lazyPage is one page of states: their transition rows and mapping
// vectors.
type lazyPage struct {
	rows []int32 // lazyPageSize × nc entries
	maps []int16 // lazyPageSize × n entries
}

// pageDir is a page directory that grows on demand. Pages never move, so
// growing copies the directory, not the pages, and publishes the copy
// through an atomic pointer. Writers (page allocation, grow, reset) hold
// the owner's construction mutex. A reader learns a state id only through
// an atomically published transition whose writer had already published
// the directory that holds the state's page, so a directory loaded after
// the id always covers it; a loop that keeps one snapshot across many
// steps reloads it when an id indexes past the snapshot.
type pageDir[P any] struct{ p atomic.Pointer[[]P] }

// minDirPages is the directory length the first page allocates.
const minDirPages = 4

func (d *pageDir[P]) load() []P {
	if s := d.p.Load(); s != nil {
		return *s
	}
	return nil
}

// grownFor returns the length a directory of n entries grows to so that
// page p fits: n when it already does, else doubled.
func grownFor(n, p int) int {
	if p < n {
		return n
	}
	return max(2*n, p+1, minDirPages)
}

// grow publishes a copy of the directory with n entries.
func (d *pageDir[P]) grow(n int) []P {
	s := make([]P, n)
	copy(s, d.load())
	d.p.Store(&s)
	return s
}

// reset drops the directory and with it every page. The owner must have
// excluded readers.
func (d *pageDir[P]) reset() { d.p.Store(nil) }

const (
	// lazyPageBits sizes component pages: with a shared byte budget the
	// charging unit must stay small relative to realistic budgets (the
	// grace floor force-admits one page per table, so page size is also
	// the granularity below which a budget cannot bind), and component
	// DFAs can run to thousands of states at 2·n bytes per mapping vector.
	lazyPageBits = 5
	lazyPageSize = 1 << lazyPageBits
	// lazyStateOverhead approximates the per-state bookkeeping outside
	// the pages (intern map bucket + id slice entry) for budget
	// accounting; folded into the page charge.
	lazyStateOverhead = 48
)

// newLazy prepares an on-the-fly D-SFA over d whose pages are charged
// through h. maxStates (≥ 1) bounds the number of materialized states
// (≤ n states are created for an input of length n, so the bound only
// matters for adversarial inputs); the owner checked d's size.
func newLazy(d *dfa.DFA, maxStates int, h *BudgetHandle) *Lazy {
	l := &Lazy{
		D:        d,
		nc:       d.BC.Count,
		n:        d.NumStates,
		maxState: int32(maxStates),
		h:        h,
		ids:      make(map[uint64][]int32),
		scratch:  make([]int16, d.NumStates),
	}
	l.reinit()
	return l
}

// lazyPageBytes is the budget charge of one page of a Lazy over d.
func lazyPageBytes(d *dfa.DFA) int64 {
	return lazyPageSize * int64(4*d.BC.Count+2*d.NumStates+lazyStateOverhead)
}

// lazyDirEntryBytes is the budget charge of one page-directory entry.
const lazyDirEntryBytes = int64(unsafe.Sizeof(lazyPage{}))

// maxCharge bounds the next single charge intern can make: one page, plus
// the directory's doubling when the page is the first past its end.
func (l *Lazy) maxCharge() int64 {
	return lazyPageBytes(l.D) + int64(max(len(l.pages.load()), minDirPages))*lazyDirEntryBytes
}

// drop releases every materialized state and its budget bytes, leaving
// the structure empty (not even the identity). The owner must exclude
// readers and follow with reinit before the next use; the two-phase
// split lets a LazyTuple release all its components' bytes before any
// of them re-charges, so the re-initialization fits the grace floor.
func (l *Lazy) drop() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.pages.reset()
	l.ids = make(map[uint64][]int32) // a cleared map would keep its buckets
	l.numStates.Store(0)
	l.h.Release(l.bytes)
	l.bytes = 0
}

// reinit re-interns the identity mapping after drop (or at
// construction). It cannot fail: the structure is empty, so the state
// cap is not reached, and the page charge goes through the budget's
// grace floor.
func (l *Lazy) reinit() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for q := range l.scratch {
		l.scratch[q] = int16(q)
	}
	start, err := l.intern(l.scratch)
	if err != nil {
		panic(fmt.Sprintf("core: lazy reinit: %v", err))
	}
	l.start = start
}

// Intern returns the id of the state with the given transformation
// vector, materializing it if needed. It is how a lazy walker re-enters
// after an eviction: the spilled carried vectors become fresh states,
// and scanning continues as if they had been discovered from the
// identity. The error is ErrTooManyStates at the cap or a wrapped
// ErrTableBudget on an exhausted budget.
func (l *Lazy) Intern(vec []int16) (int32, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.intern(vec)
}

// Start returns the id of the identity mapping.
func (l *Lazy) Start() int32 { return l.start }

// NumStates returns the number of states materialized so far.
func (l *Lazy) NumStates() int { return int(l.numStates.Load()) }

// Map returns the transformation vector of state id (read-only).
func (l *Lazy) Map(id int32) []int16 {
	p, off := id>>lazyPageBits, int(id&(lazyPageSize-1))
	return l.pages.load()[p].maps[off*l.n : (off+1)*l.n]
}

// NextClass returns the successor of state id on byte class c,
// constructing it if necessary. It is safe for concurrent use.
func (l *Lazy) NextClass(id int32, c int) (int32, error) {
	p, off := id>>lazyPageBits, int(id&(lazyPageSize-1))
	slot := &l.pages.load()[p].rows[off*l.nc+c]
	if to := atomic.LoadInt32(slot); to >= 0 {
		return to, nil
	}
	return l.construct(id, c, slot)
}

// construct computes and publishes the missing transition.
func (l *Lazy) construct(id int32, c int, slot *int32) (int32, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if to := atomic.LoadInt32(slot); to >= 0 {
		return to, nil // lost the race; another goroutine built it
	}
	f, next := l.Map(id), l.scratch
	for q := 0; q < l.n; q++ {
		next[q] = int16(l.D.NextClass(int32(f[q]), c))
	}
	to, err := l.intern(next)
	if err != nil {
		return 0, err
	}
	atomic.StoreInt32(slot, to) // publish: readers of `to` now see its page
	return to, nil
}

// intern must be called with l.mu held.
func (l *Lazy) intern(vec []int16) (int32, error) {
	h := hashVec16(vec)
	for _, id := range l.ids[h] {
		if eqVec16(l.Map(id), vec) {
			return id, nil
		}
	}
	id := l.numStates.Load()
	if id >= l.maxState {
		return 0, fmt.Errorf("%w (lazy cap %d)", ErrTooManyStates, l.maxState)
	}
	p, off := int(id>>lazyPageBits), int(id&(lazyPageSize-1))
	pages := l.pages.load()
	if p >= len(pages) || pages[p].rows == nil {
		// A new page, and a longer directory when the page is past its
		// end: one charge, so a refusal leaves nothing half-made.
		grown := grownFor(len(pages), p)
		charge := lazyPageBytes(l.D) + int64(grown-len(pages))*lazyDirEntryBytes
		if !l.h.TryCharge(charge) {
			return 0, fmt.Errorf("%w (lazy page)", ErrTableBudget)
		}
		l.bytes += charge
		if grown > len(pages) {
			pages = l.pages.grow(grown)
		}
		rows := make([]int32, lazyPageSize*l.nc)
		for i := range rows {
			rows[i] = -1
		}
		pages[p] = lazyPage{rows, make([]int16, lazyPageSize*l.n)}
	}
	copy(pages[p].maps[off*l.n:(off+1)*l.n], vec)
	l.ids[h] = append(l.ids[h], id)
	// numStates.Store is the only mutation of the counter and happens
	// under l.mu; readers use it only for statistics.
	l.numStates.Store(id + 1)
	return id, nil
}
