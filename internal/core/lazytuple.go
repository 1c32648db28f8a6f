package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/dfa"
)

// LazyTuple is the lazy combined D-SFA: the tuple-interned construction
// of internal/multi/dsfaprod.go turned from a BFS over all reachable
// tuples into on-demand discovery during scanning. A state is a k-tuple
// of component D-SFA states (one on-the-fly Lazy per rule); the first
// time a scan steps a tuple on a byte class, the k component successors
// are looked up (building component states as needed) and the successor
// tuple is interned. Only tuples the traffic actually reaches are ever
// materialized — the product blow-up that makes eager construction
// reject large rule sets never happens, at the price of bounding memory
// at run time instead of compile time.
//
// Unlike the eager tuple construction, no product DFA exists, so there
// is no |Dprod|-long mapping vector and no mask table. The denotation
// of a tuple state is the concatenation of its components' mapping
// vectors — a block-diagonal transformation of length Σ|Di| — and that
// concatenation is the carried value of the streaming protocol:
// composition is blockwise, and the verdict bit of rule i is read from
// block i alone (Di.Accept[blocki[Di.Start]]). Crucially the carried
// value never references tuple ids, which is what makes eviction safe
// mid-stream: a spilled vector can be re-interned into a freshly reset
// structure and scanning continues exactly where it stopped.
//
// Concurrency: the transition fast path is the same lock-free
// atomic-published-row protocol as Lazy. Scans hold rw.RLock for the
// duration of a chunk; eviction (BudgetEvict) takes rw.Lock, so it
// waits for in-flight chunks and no reader ever observes a reset. A
// walker that hits the budget spills its carried vector, releases the
// read lock, asks the budget for room (which may evict this very
// structure), re-acquires, re-interns, and retries the same byte — so
// RunToVec always completes and never returns an error.
//
// NewLazyTuple only records the shape — the component DFAs and the block
// offsets of the carried vector, which is all Identity, Compose, OrAccept
// and Component need. Everything a combined walk needs (the byte-class
// refinement, the component automata, the tuple tables, the budget
// registration) is built by the first RunToVec, so a structure whose
// owner only ever verifies single rules from their start states (a
// window-mode lazy shard, see internal/multi/prefilter.go) never charges
// the budget a byte and is never a candidate for eviction.
type LazyTuple struct {
	dfas []*dfa.DFA
	k    int
	offs []int32 // k+1 block offsets into carried vectors
	vlen int     // Σ|Di|, the carried-vector length
	opts LazyTupleOptions

	// Everything below is written by build, once, before built is set.
	once  sync.Once
	built atomic.Bool

	comps     []*Lazy
	nc        int         // combined byte-class count
	classOf   [256]uint16 // byte → combined class
	compClass []int32     // [k*nc]: component i's class for combined class c

	h *BudgetHandle

	rw sync.RWMutex // readers: scans; writer: eviction (and build)
	mu sync.Mutex   // construction

	ids       map[string]int32
	tuples    []int32          // stride k, read under mu only
	rows      pageDir[[]int32] // paged transition rows, stride nc per state
	states    int32
	maxStates int32
	bytes     int64 // tuple-layer charged bytes, directory included (under mu)
	start     int32
	next      []int32 // slow-path scratch (under mu)
	key       []byte  // intern-key scratch (under mu)

	fills  atomic.Int64
	resets atomic.Int64
	gen    atomic.Uint64
}

const (
	lazyTuplePageBits = 6
	lazyTuplePageSize = 1 << lazyTuplePageBits
)

// LazyTupleOptions parameterizes NewLazyTuple.
type LazyTupleOptions struct {
	// Budget is the table budget charged for every materialized state.
	// nil runs unbudgeted (a private unlimited budget, still metered).
	Budget *TableBudget
	// MaxStates caps resident tuple states (0 = 1<<20). Overruns reset
	// the structure, they never fail a scan.
	MaxStates int
	// CompMaxStates caps each component's resident states (0 = 1<<20).
	CompMaxStates int
}

// NewLazyTuple prepares the lazy combined automaton for the given
// component DFAs (one per rule; verdict bit i belongs to dfas[i]). It
// builds no tables and registers nothing with the budget; the first
// RunToVec does.
func NewLazyTuple(dfas []*dfa.DFA, opts LazyTupleOptions) (*LazyTuple, error) {
	if len(dfas) == 0 {
		return nil, errors.New("core: lazy tuple over zero components")
	}
	k := len(dfas)
	t := &LazyTuple{dfas: dfas, k: k, opts: opts, offs: make([]int32, k+1)}
	for i, d := range dfas {
		if d.NumStates > MaxDFAStates {
			return nil, fmt.Errorf("core: lazy tuple component %d: DFA has %d states, limit %d", i, d.NumStates, MaxDFAStates)
		}
		t.offs[i+1] = t.offs[i] + int32(d.NumStates)
	}
	t.vlen = int(t.offs[k])
	return t, nil
}

// build constructs what a combined walk needs; see the type comment. It
// cannot fail: the component sizes were checked by NewLazyTuple, and the
// identity working set charges through the grace floor.
func (t *LazyTuple) build() {
	// The handle is registered — and so evictable — before the components
	// exist; the write lock keeps BudgetEvict out until they do.
	t.rw.Lock()
	defer t.rw.Unlock()
	k, dfas := t.k, t.dfas
	maxStates := t.opts.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	if maxStates < lazyTuplePageSize {
		maxStates = lazyTuplePageSize
	}
	compMax := t.opts.CompMaxStates
	if compMax <= 0 {
		compMax = 1 << 20
	}
	if compMax < lazyPageSize {
		compMax = lazyPageSize
	}
	t.ids = make(map[string]int32)
	t.maxStates = int32(maxStates)
	t.next = make([]int32, k)
	t.key = make([]byte, 4*k)

	// Common byte-class refinement: two bytes share a combined class iff
	// no component distinguishes them.
	classKey := make([]byte, k)
	classIDs := make(map[string]uint16)
	var byClass []int32 // class-major while discovering, transposed below
	for b := 0; b < 256; b++ {
		for i, d := range dfas {
			classKey[i] = d.BC.Of[b]
		}
		id, ok := classIDs[string(classKey)]
		if !ok {
			id = uint16(len(classIDs))
			classIDs[string(classKey)] = id
			for _, d := range dfas {
				byClass = append(byClass, int32(d.BC.Of[b]))
			}
		}
		t.classOf[b] = id
	}
	t.nc = len(classIDs)
	// The hot path indexes component-major: compClass[i*nc+c].
	t.compClass = make([]int32, k*t.nc)
	for c := 0; c < t.nc; c++ {
		for i := 0; i < k; i++ {
			t.compClass[i*t.nc+c] = byClass[c*k+i]
		}
	}

	// Budget wiring. The grace floor covers the identity working set —
	// one page and a first directory per component plus the same for the
	// tuple rows, exactly what reinit charges after an eviction — plus the
	// slack a re-entry needs (the spilled vectors intern into the fresh
	// pages; only the tuple-state bookkeeping charges). An evicted
	// structure can therefore always re-initialize and re-enter regardless
	// of how full the shared budget is; docs/memory-model.md states the
	// resulting bound.
	budget := t.opts.Budget
	if budget == nil {
		budget = NewTableBudget(0)
	}
	grace := t.tuplePageBytes() + minDirPages*tupleDirEntryBytes + 4*t.tupleStateBytes() + 1024
	for _, d := range dfas {
		grace += lazyPageBytes(d) + minDirPages*lazyDirEntryBytes
	}
	t.h = budget.Register(t, grace)

	t.comps = make([]*Lazy, k)
	for i, d := range dfas {
		t.comps[i] = newLazy(d, compMax, t.h)
	}
	t.mu.Lock()
	err := t.initStartLocked()
	t.mu.Unlock()
	if err != nil {
		panic(fmt.Sprintf("core: lazy tuple init: %v", err))
	}
	t.built.Store(true)
}

// tuplePageBytes is the budget charge of one page of transition rows.
func (t *LazyTuple) tuplePageBytes() int64 {
	return int64(lazyTuplePageSize) * int64(4*t.nc)
}

// tupleDirEntryBytes is the budget charge of one row-directory entry.
const tupleDirEntryBytes = int64(unsafe.Sizeof([]int32(nil)))

// room is the MakeRoom request size: a bound on the largest single charge
// the next fill can make, over the tuple rows and every component.
func (t *LazyTuple) room() int64 {
	n := t.tuplePageBytes() + t.tupleStateBytes() + int64(max(len(t.rows.load()), minDirPages))*tupleDirEntryBytes
	for _, c := range t.comps {
		n = max(n, c.maxCharge())
	}
	return n
}

// tupleStateBytes is the per-state charge outside the rows: the tuple
// itself, the intern key, and approximate map overhead.
func (t *LazyTuple) tupleStateBytes() int64 {
	return int64(8*t.k + lazyStateOverhead)
}

// Rules returns the number of component rules k.
func (t *LazyTuple) Rules() int { return t.k }

// VecLen returns the carried-vector length Σ|Di|.
func (t *LazyTuple) VecLen() int { return t.vlen }

// Gen returns the eviction generation (test observability).
func (t *LazyTuple) Gen() uint64 { return t.gen.Load() }

// Component returns rule i's DFA: what a consumer that knows the rule and
// the start state walks instead of the combined automaton.
func (t *LazyTuple) Component(i int) *dfa.DFA { return t.dfas[i] }

// Built reports whether the combined automaton's tables exist — whether
// any RunToVec has run.
func (t *LazyTuple) Built() bool { return t.built.Load() }

// Close releases the structure's budget bytes and deregisters it from
// eviction; a structure that never built its tables has neither. The
// structure must not be scanned afterwards.
func (t *LazyTuple) Close() {
	if t.built.Load() {
		t.h.Close()
	}
}

// Identity writes the empty input's transformation — every block the
// identity over its component's states — into dst (VecLen() long).
func (t *LazyTuple) Identity(dst []int16) {
	for i := 0; i < t.k; i++ {
		base := int(t.offs[i])
		n := int(t.offs[i+1]) - base
		for q := 0; q < n; q++ {
			dst[base+q] = int16(q)
		}
	}
}

// Compose merges two carried vectors blockwise: h ← "f then g" per
// component (Lemma 1's ⊙ applied block-diagonally). h must not alias f
// or g.
//
//sfa:borrowed f g
func (t *LazyTuple) Compose(h, f, g []int16) {
	for i := 0; i < t.k; i++ {
		base := int(t.offs[i])
		n := int(t.offs[i+1]) - base
		hb, fb, gb := h[base:base+n], f[base:base+n], g[base:base+n]
		for q := 0; q < n; q++ {
			hb[q] = gb[fb[q]]
		}
	}
}

// OrAccept ORs the verdicts of a carried vector into dst: bit i is set
// when component i accepts the input the vector summarizes.
//
//sfa:borrowed cur
func (t *LazyTuple) OrAccept(cur []int16, dst []uint64) {
	for i := 0; i < t.k; i++ {
		d := t.dfas[i]
		q := cur[int(t.offs[i])+int(d.Start)]
		if d.Accept[q] {
			dst[i>>6] |= 1 << (i & 63)
		}
	}
}

// RunToVec scans chunk from the identity and writes the induced
// transformation into dst (VecLen() long). States are built on demand;
// budget exhaustion and state-cap overruns are absorbed internally by
// the spill–evict–re-enter protocol, so RunToVec always completes.
func (t *LazyTuple) RunToVec(chunk []byte, dst []int16) {
	t.once.Do(t.build)
	t.h.Touch()
	t.rw.RLock()
	cur, rows := t.start, t.rows.load()
	for i := 0; i < len(chunk); {
		c := int(t.classOf[chunk[i]])
		p := int(cur >> lazyTuplePageBits)
		if p >= len(rows) {
			rows = t.rows.load() // cur was published after this snapshot was taken
		}
		to := atomic.LoadInt32(&rows[p][(int(cur)&(lazyTuplePageSize-1))*t.nc+c])
		if to < 0 {
			var err error
			to, err = t.slowStep(cur, c)
			if err != nil {
				// Spill the carried transformation — it is the scan's
				// whole state, independent of any ids — then give the
				// read lock up so eviction can run, make room, and
				// re-enter at the same byte.
				t.materialize(cur, dst)
				room := t.room()
				t.rw.RUnlock()
				if errors.Is(err, ErrTableBudget) {
					t.h.MakeRoom(room)
				} else {
					t.BudgetEvict() // own state cap: only a reset helps
				}
				t.rw.RLock()
				cur, rows = t.reenterLoop(dst), t.rows.load() // an eviction replaces the directory
				continue
			}
		}
		cur = to
		i++
	}
	t.materialize(cur, dst)
	t.rw.RUnlock()
}

// slowStep constructs the missing transition of tuple `cur` on combined
// class c. The returned error is ErrTableBudget (make room and retry)
// or ErrTooManyStates (reset and retry); both are handled inside
// RunToVec.
func (t *LazyTuple) slowStep(cur int32, c int) (int32, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	page := t.rows.load()[cur>>lazyTuplePageBits]
	slot := &page[(int(cur)&(lazyTuplePageSize-1))*t.nc+c]
	if to := atomic.LoadInt32(slot); to >= 0 {
		return to, nil // lost the race
	}
	start := time.Now()
	base := int(cur) * t.k
	for i, comp := range t.comps {
		id, err := comp.NextClass(t.tuples[base+i], int(t.compClass[i*t.nc+c]))
		if err != nil {
			return 0, err
		}
		t.next[i] = id
	}
	to, err := t.internTupleLocked(t.next)
	if err != nil {
		return 0, err
	}
	atomic.StoreInt32(slot, to) // publish: readers of `to` see its row page
	t.h.ObserveFill(time.Since(start).Nanoseconds())
	return to, nil
}

// internTupleLocked interns a k-tuple of component ids. Caller holds mu.
func (t *LazyTuple) internTupleLocked(tup []int32) (int32, error) {
	for i, q := range tup {
		binary.LittleEndian.PutUint32(t.key[i*4:], uint32(q))
	}
	if id, ok := t.ids[string(t.key)]; ok {
		return id, nil
	}
	id := t.states
	if id >= t.maxStates {
		return 0, fmt.Errorf("%w (lazy tuple cap %d)", ErrTooManyStates, t.maxStates)
	}
	p := int(id >> lazyTuplePageBits)
	dir := t.rows.load()
	newPage := p >= len(dir) || dir[p] == nil
	grown := grownFor(len(dir), p)
	charge := t.tupleStateBytes() + int64(grown-len(dir))*tupleDirEntryBytes
	if newPage {
		charge += t.tuplePageBytes()
	}
	if !t.h.TryCharge(charge) {
		return 0, fmt.Errorf("%w (tuple state)", ErrTableBudget)
	}
	t.bytes += charge
	if grown > len(dir) {
		dir = t.rows.grow(grown)
	}
	if newPage {
		rows := make([]int32, lazyTuplePageSize*t.nc)
		for i := range rows {
			rows[i] = -1
		}
		dir[p] = rows
	}
	t.ids[string(t.key)] = id
	t.tuples = append(t.tuples, tup...)
	t.states = id + 1
	t.fills.Add(1)
	t.h.NoteFill()
	return id, nil
}

// initStartLocked interns the identity tuple. Caller holds mu.
func (t *LazyTuple) initStartLocked() error {
	for i, comp := range t.comps {
		t.next[i] = comp.Start()
	}
	id, err := t.internTupleLocked(t.next)
	if err != nil {
		return err
	}
	t.start = id
	return nil
}

// materialize writes tuple state `cur`'s denotation — the concatenated
// component mapping vectors — into dst. Called under rw.RLock; takes mu
// because the tuples slice grows by append.
func (t *LazyTuple) materialize(cur int32, dst []int16) {
	t.mu.Lock()
	base := int(cur) * t.k
	for i, comp := range t.comps {
		copy(dst[t.offs[i]:t.offs[i+1]], comp.Map(t.tuples[base+i]))
	}
	t.mu.Unlock()
}

// reenterLoop re-interns a spilled carried vector as a (possibly fresh)
// tuple state. Called under rw.RLock after room was made. A charge can
// still fail if competing fills consumed the freed room first; each
// failed attempt self-evicts, and after a self-eviction the whole
// re-entry fits the handle's grace floor (one state per component in
// already-charged pages, one tuple state), so the loop terminates.
func (t *LazyTuple) reenterLoop(vec []int16) int32 {
	for {
		id, err := t.reenter(vec)
		if err == nil {
			return id
		}
		t.rw.RUnlock()
		t.BudgetEvict()
		t.rw.RLock()
	}
}

func (t *LazyTuple) reenter(vec []int16) (int32, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, comp := range t.comps {
		id, err := comp.Intern(vec[t.offs[i]:t.offs[i+1]])
		if err != nil {
			return 0, err
		}
		t.next[i] = id
	}
	return t.internTupleLocked(t.next)
}

// BudgetEvict implements Evictable: drop every materialized state —
// components and tuples — give the bytes back, and re-initialize to
// the identity. In-flight scans are excluded by the write lock; their
// spilled vectors re-enter afterwards. Returns the bytes released.
func (t *LazyTuple) BudgetEvict() int64 {
	t.rw.Lock()
	defer t.rw.Unlock()
	before := t.h.Used()
	t.mu.Lock()
	for _, c := range t.comps {
		c.drop()
	}
	t.rows.reset()
	// Fresh containers: clearing would keep the slice's capacity and the
	// map's buckets allocated after their bytes were released.
	t.tuples = nil
	t.ids = make(map[string]int32)
	t.states = 0
	t.h.Release(t.bytes)
	t.bytes = 0
	t.mu.Unlock()
	// Re-initialization charges through the grace floor: with every
	// byte of this structure just released, it cannot fail.
	for _, c := range t.comps {
		c.reinit()
	}
	t.mu.Lock()
	if err := t.initStartLocked(); err != nil {
		t.mu.Unlock()
		panic(fmt.Sprintf("core: lazy tuple reinit: %v", err))
	}
	t.mu.Unlock()
	t.resets.Add(1)
	t.h.NoteEviction()
	t.gen.Add(1)
	return before - t.h.Used()
}

// LazyTupleStats is a point-in-time snapshot of the structure.
type LazyTupleStats struct {
	Rules         int
	States        int   // resident tuple states
	CompStates    int   // resident component states, summed
	ResidentBytes int64 // bytes charged to the table budget
	Fills         int64 // tuple states ever materialized
	Resets        int64 // whole-structure evictions
}

// Stats snapshots the structure's counters.
func (t *LazyTuple) Stats() LazyTupleStats {
	if !t.built.Load() {
		return LazyTupleStats{Rules: t.k}
	}
	t.mu.Lock()
	states := int(t.states)
	t.mu.Unlock()
	comp := 0
	for _, c := range t.comps {
		comp += c.NumStates()
	}
	return LazyTupleStats{
		Rules:         t.k,
		States:        states,
		CompStates:    comp,
		ResidentBytes: t.h.Used(),
		Fills:         t.fills.Load(),
		Resets:        t.resets.Load(),
	}
}
