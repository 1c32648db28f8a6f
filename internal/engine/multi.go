package engine

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// MultiSFA is the paper's contribution in executable form — Algorithm 5
// — over a D-SFA whose underlying DFA carries a per-rule accept bitmask,
// so one parallel pass over the input reports every matching rule at
// once. The input is split across p threads; each thread starts from the
// *identity* SFA state and performs exactly one table lookup per byte
// (no per-state loop: the speculation was paid at construction time).
// The per-chunk results are SFA states, i.e. transformations of the
// DFA's state set, combined by either reduction strategy into the DFA
// state the whole input reaches, whose bitmask row is the verdict.
//
// A single pattern is the one-rule case (NewSFAParallel): one mask word
// per state, bit 0 the DFA's accept bit. A rule set's shards are the
// general one (NewMultiSFA, built by internal/multi).
//
// Matching runs on the persistent worker pool by default and recycles its
// scratch (chunk results, reduction buffers) through a sync.Pool of
// contexts, so a steady-state Match creates no goroutines and, with a
// caller-provided result buffer, a MatchMask performs no heap
// allocation. WithSpawn restores the seed's spawn-per-match path for the
// Fig. 10 thread-creation measurement.
//
// The engine reads no clock: callers that own shards time their calls
// and book them with Charge.
type MultiSFA struct {
	s       *core.DSFA
	words   int      // mask words per combined-DFA state
	masks   []uint64 // DFA-state-indexed accept bitmasks, stride words
	threads int
	red     Reduction
	layout  TableLayout // resolved; never LayoutAuto
	tab     tables
	spawn   bool
	pool    *Pool
	id      uint64    // process-unique build id (see BuildID)
	ctxs    sync.Pool // of *multiCtx

	// boundary is nil unless WithScanStats was given: the frequency table
	// of chunk-boundary states (the input Ko-style chunk speculation
	// needs). It is per-engine — state ids are meaningless across shards.
	boundary *obs.StateFreq

	// attr is the always-on per-shard cost account (compose ns, chunks,
	// bytes, candidate windows), booked by callers; see attribution.
	attr attribution
}

// NewMultiSFA compiles the matcher. masks holds one accept bitmask of
// `words` uint64 words per state of the combined DFA underlying s (the
// DFA whose transformation vectors s's states are): bit r is set when the
// DFA state accepts rule r. Chunk results are reduced sequentially.
func NewMultiSFA(s *core.DSFA, masks []uint64, words, threads int, opts ...Option) *MultiSFA {
	return newMultiSFA(s, masks, words, threads, ReduceSequential, opts)
}

// NewSFAParallel compiles the single-pattern matcher for a fixed thread
// count and reduction strategy: the one-rule MultiSFA whose mask bit is
// the accept bit of s's DFA.
func NewSFAParallel(s *core.DSFA, threads int, red Reduction, opts ...Option) *MultiSFA {
	masks := make([]uint64, s.D.NumStates)
	for q, ok := range s.D.Accept {
		if ok {
			masks[q] = 1
		}
	}
	return newMultiSFA(s, masks, 1, threads, red, opts)
}

func newMultiSFA(s *core.DSFA, masks []uint64, words, threads int, red Reduction, opts []Option) *MultiSFA {
	if threads < 1 {
		threads = 1
	}
	if len(masks) != s.D.NumStates*words {
		panic(fmt.Sprintf("engine: mask table %d != %d DFA states × %d words",
			len(masks), s.D.NumStates, words))
	}
	o := buildOpts(opts)
	id := o.buildID
	if id == 0 {
		id = buildSeq.Add(1)
	}
	m := &MultiSFA{
		s:       s,
		words:   words,
		masks:   masks,
		threads: threads,
		red:     red,
		layout:  resolveLayout(o.layout, s.NumStates),
		spawn:   o.spawn,
		pool:    o.pool,
		id:      id,
	}
	if o.stats != nil {
		m.boundary = &obs.StateFreq{}
	}
	switch m.layout {
	case LayoutU8:
		m.tab.u8 = s.Table256U8()
	case LayoutU16:
		m.tab.u16 = s.Table256U16()
	case LayoutI32:
		m.tab.i32 = s.Table256()
	}
	m.ctxs.New = func() any {
		return &multiCtx{m: m, locals: make([]int32, m.threads)}
	}
	return m
}

// multiCtx is the per-call scratch — chunk results plus the reduction
// arena — recycled through MultiSFA.ctxs so concurrent calls on one
// engine are allocation-free and each own private storage.
type multiCtx struct {
	job    jobState
	m      *MultiSFA
	text   []byte
	locals []int32
	ar     reduceArena16
}

// runChunk is lines 1–5 of Algorithm 5 for chunk i: fi ← fI, then one
// lookup per byte.
func (c *multiCtx) runChunk(i int) {
	lo, hi := span(len(c.text), c.m.threads, i)
	c.locals[i] = c.m.runChunk(c.text[lo:hi])
}

// runChunk walks one chunk through the resolved table layout.
func (m *MultiSFA) runChunk(chunk []byte) int32 {
	if m.layout == LayoutClass {
		q := m.s.Start
		d := m.s
		for _, b := range chunk {
			q = d.NextByte(q, b)
		}
		return q
	}
	return m.tab.run(m.layout, m.s.Start, chunk)
}

// finalState folds the p chunk mappings into the combined-DFA state the
// whole input reaches: Sfin ← I; then Sfin ← fi(Sfin) for each i — O(p)
// total, "independent from the number of states in SFA" (Sect. V-B).
func (m *MultiSFA) finalState(locals []int32) int32 {
	q := m.s.D.Start
	for _, f := range locals {
		q = core.ApplyVec(m.s.Map(f), q)
	}
	return q
}

// reduce is lines 6–9 of Algorithm 5 over a context's chunk results,
// returning the DFA state the whole input reaches: the sequential fold,
// or ffin ← f1 ⊙ … ⊙ fp by pairwise ⊙-tree composition over the arena,
// then ffin(I).
func (m *MultiSFA) reduce(c *multiCtx) int32 {
	if m.red != ReduceTree {
		return m.finalState(c.locals)
	}
	vecs := c.ar.vecs(len(c.locals))
	for i, f := range c.locals {
		vecs[i] = m.s.Map(f)
	}
	return int32(treeReduce16(vecs, m.s.D.NumStates, &c.ar)[m.s.D.Start])
}

// run walks text with p chunks and returns the final combined-DFA state.
func (m *MultiSFA) run(text []byte) int32 {
	if m.threads == 1 {
		// Degenerate case: no fork, no reduction — the chunk result is an
		// SFA state; apply its mapping to the DFA start.
		return core.ApplyVec(m.s.Map(m.runChunk(text)), m.s.D.Start)
	}
	c := m.ctxs.Get().(*multiCtx)
	c.text = text
	dispatchChunks(c, &c.job, m.pool, m.spawn, m.threads)
	q := m.reduce(c)
	c.text = nil
	m.ctxs.Put(c)
	return q
}

// row is DFA state q's accept bitmask.
func (m *MultiSFA) row(q int32) []uint64 {
	return m.masks[int(q)*m.words : (int(q)+1)*m.words]
}

// MatchMask scans text once and writes the accept bitmask — bit r set iff
// rule r matches the whole input — into dst, which must have Words()
// capacity. It returns dst[:Words()].
func (m *MultiSFA) MatchMask(text []byte, dst []uint64) []uint64 {
	return append(dst[:0], m.row(m.run(text))...)
}

// OrMask scans text sequentially on the calling goroutine and ORs the
// resulting accept bitmask into dst, which must have Words() length.
// This is the candidate-window primitive of the literal prefilter: a
// window is a short slice, so the chunk-parallel dispatch of MatchMask
// would cost more than the walk, and OR-accumulation lets overlapping
// windows of one input share a result buffer.
func (m *MultiSFA) OrMask(text []byte, dst []uint64) {
	q := core.ApplyVec(m.s.Map(m.runChunk(text)), m.s.D.Start)
	for i, w := range m.row(q) {
		dst[i] |= w
	}
}

// Match implements Matcher: whole-input acceptance by any rule — the
// accept bit of the DFA under the D-SFA, which accepts where some rule
// does (a one-rule mask is that bit; the rule-set product accepts where
// any component does). At p = 1 it is Algorithm 5's own test: the chunk's
// SFA state is in Fs.
func (m *MultiSFA) Match(text []byte) bool {
	if m.threads == 1 {
		return m.s.Accept[m.runChunk(text)]
	}
	return m.s.D.Accept[m.run(text)]
}

// Words returns the mask width in uint64 words.
func (m *MultiSFA) Words() int { return m.words }

// Masks exposes the combined-DFA-state-indexed accept bitmask table
// (stride Words()) so the rule-set codec can serialize it. The slice
// aliases internal storage and must not be modified.
func (m *MultiSFA) Masks() []uint64 { return m.masks }

// SFA exposes the underlying automaton (stats and harness reporting).
func (m *MultiSFA) SFA() *core.DSFA { return m.s }

// Layout returns the resolved table layout.
func (m *MultiSFA) Layout() TableLayout { return m.layout }

// TableBytes returns the resident size of the materialized match table
// (0 for LayoutClass, which walks the class-indexed table in core).
func (m *MultiSFA) TableBytes() int64 { return m.tab.memoryBytes() }

// Name implements Matcher.
func (m *MultiSFA) Name() string {
	mode := ""
	if m.spawn {
		mode = "-spawn"
	}
	return fmt.Sprintf("sfa-p%d-%s-%s%s", m.threads, m.red, m.layout, mode)
}
