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
// A Lazy may be tied to a table budget (newLazySized with a
// *BudgetHandle): page allocations are then charged through the handle
// and fail with ErrTableBudget when it is exhausted, and the owner — a
// LazyTuple, which shares one handle across its components — can drop
// and re-initialize the structure to give the bytes back. The budgeted
// entry points are package-internal; NewLazy keeps the original
// unbudgeted contract.
type Lazy struct {
	D *dfa.DFA

	nc       int
	n        int // vector length
	maxState int32
	pageBits uint
	pageSize int32
	h        *BudgetHandle // nil = unbudgeted

	mu        sync.Mutex
	numStates atomic.Int32
	ids       map[uint64][]int32
	bytes     int64   // bytes charged for pages and directory entries (under mu)
	scratch   []int16 // successor / identity vector being interned (under mu)

	pages pageDir[lazyPage] // index = id >> pageBits

	start int32
}

// lazyPage is one page of states: their transition rows, mapping vectors
// and accept flags.
type lazyPage struct {
	rows   []int32 // pageSize × nc entries
	maps   []int16 // pageSize × n entries
	accept []bool  // pageSize entries
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
	lazyPageBits = 10
	lazyPageSize = 1 << lazyPageBits
	// lazyStateOverhead approximates the per-state bookkeeping outside
	// the pages (intern map bucket + id slice entry) for budget
	// accounting; folded into the page charge.
	lazyStateOverhead = 48
)

// NewLazy prepares an on-the-fly D-SFA over d. maxStates bounds the
// number of materialized SFA states (≤ n states are created for an input
// of length n, so the bound only matters for adversarial inputs).
func NewLazy(d *dfa.DFA, maxStates int) (*Lazy, error) {
	return newLazySized(d, maxStates, lazyPageBits, nil)
}

// newLazySized is NewLazy with an explicit page granularity and an
// optional budget handle. Small pages make eviction accounting
// fine-grained enough for tight budgets; the default page holds 1024
// states, which for a component DFA of a few thousand states is
// megabytes — far too coarse a charging unit for a shared budget.
func newLazySized(d *dfa.DFA, maxStates int, pageBits uint, h *BudgetHandle) (*Lazy, error) {
	if d.NumStates > MaxDFAStates {
		return nil, fmt.Errorf("core: DFA has %d states, limit %d", d.NumStates, MaxDFAStates)
	}
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	pageSize := 1 << pageBits
	l := &Lazy{
		D:        d,
		nc:       d.BC.Count,
		n:        d.NumStates,
		maxState: int32(maxStates),
		pageBits: pageBits,
		pageSize: int32(pageSize),
		h:        h,
		ids:      make(map[uint64][]int32),
		scratch:  make([]int16, d.NumStates),
	}
	if err := l.reinit(); err != nil {
		return nil, err
	}
	return l, nil
}

// pageBytes is the budget charge of one page.
func (l *Lazy) pageBytes() int64 {
	return int64(l.pageSize) * int64(4*l.nc+2*l.n+1+lazyStateOverhead)
}

// lazyDirEntryBytes is the budget charge of one page-directory entry.
const lazyDirEntryBytes = int64(unsafe.Sizeof(lazyPage{}))

// maxCharge bounds the next single charge intern can make: one page, plus
// the directory's doubling when the page is the first past its end.
func (l *Lazy) maxCharge() int64 {
	return l.pageBytes() + int64(max(len(l.pages.load()), minDirPages))*lazyDirEntryBytes
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
	clear(l.ids)
	l.numStates.Store(0)
	if l.h != nil {
		l.h.Release(l.bytes)
	}
	l.bytes = 0
}

// reinit re-interns the identity mapping after drop (or at
// construction). The page charge goes through the budget's grace floor,
// so on an evicted structure it cannot fail; the only error is the
// state cap, impossible when empty.
func (l *Lazy) reinit() error {
	l.mu.Lock()
	for q := range l.scratch {
		l.scratch[q] = int16(q)
	}
	start, _, err := l.intern(l.scratch)
	l.mu.Unlock()
	if err != nil {
		return err
	}
	l.start = start
	return nil
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
	id, _, err := l.intern(vec)
	return id, err
}

// Start returns the id of the identity mapping.
func (l *Lazy) Start() int32 { return l.start }

// NumStates returns the number of states materialized so far.
func (l *Lazy) NumStates() int { return int(l.numStates.Load()) }

// Map returns the transformation vector of state id (read-only).
func (l *Lazy) Map(id int32) []int16 {
	p, off := id>>l.pageBits, int(id&(l.pageSize-1))
	return l.pages.load()[p].maps[off*l.n : (off+1)*l.n]
}

// Accepting reports whether state id is accepting.
func (l *Lazy) Accepting(id int32) bool {
	p, off := id>>l.pageBits, id&(l.pageSize-1)
	return l.pages.load()[p].accept[off]
}

// NextByte returns the successor of state id on byte b, constructing it if
// necessary. It is safe for concurrent use.
func (l *Lazy) NextByte(id int32, b byte) (int32, error) {
	return l.NextClass(id, int(l.D.BC.Of[b]))
}

// NextClass is NextByte for a byte class.
func (l *Lazy) NextClass(id int32, c int) (int32, error) {
	p, off := id>>l.pageBits, int(id&(l.pageSize-1))
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
	to, _, err := l.intern(next)
	if err != nil {
		return 0, err
	}
	atomic.StoreInt32(slot, to) // publish: readers of `to` now see its page
	return to, nil
}

// intern must be called with l.mu held.
func (l *Lazy) intern(vec []int16) (int32, bool, error) {
	h := hashVec16(vec)
	for _, id := range l.ids[h] {
		if eqVec16(l.Map(id), vec) {
			return id, false, nil
		}
	}
	id := l.numStates.Load()
	if id >= l.maxState {
		return 0, false, fmt.Errorf("%w (lazy cap %d)", ErrTooManyStates, l.maxState)
	}
	p, off := int(id>>l.pageBits), int(id&(l.pageSize-1))
	pages := l.pages.load()
	if p >= len(pages) || pages[p].rows == nil {
		// A new page, and a longer directory when the page is past its
		// end: one charge, so a refusal leaves nothing half-made.
		grown := grownFor(len(pages), p)
		charge := l.pageBytes() + int64(grown-len(pages))*lazyDirEntryBytes
		if !l.h.TryCharge(charge) {
			return 0, false, fmt.Errorf("%w (lazy page)", ErrTableBudget)
		}
		l.bytes += charge
		if grown > len(pages) {
			pages = l.pages.grow(grown)
		}
		rows := make([]int32, int(l.pageSize)*l.nc)
		for i := range rows {
			rows[i] = -1
		}
		pages[p] = lazyPage{rows, make([]int16, int(l.pageSize)*l.n), make([]bool, l.pageSize)}
	}
	copy(pages[p].maps[off*l.n:(off+1)*l.n], vec)
	pages[p].accept[off] = l.D.Accept[vec[l.D.Start]]
	l.ids[h] = append(l.ids[h], id)
	// numStates.Store is the only mutation of the counter and happens
	// under l.mu; readers use it only for statistics.
	l.numStates.Store(id + 1)
	return id, true, nil
}

// Run advances from state `from` over text, constructing states on demand.
func (l *Lazy) Run(from int32, text []byte) (int32, error) {
	q := from
	bc := &l.D.BC.Of
	for _, b := range text {
		to, err := l.NextClass(q, int(bc[b]))
		if err != nil {
			return 0, err
		}
		q = to
	}
	return q, nil
}

// Accepts reports whole-input acceptance, building states as needed.
func (l *Lazy) Accepts(text []byte) (bool, error) {
	q, err := l.Run(l.start, text)
	if err != nil {
		return false, err
	}
	return l.Accepting(q), nil
}
