package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

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
// The simulation is only needed where a chunk's start state is unknown.
// A walk that runs as one chunk from the start — MatchMask below the
// parallel threshold or at p = 1, every OrMask window — starts at
// D.Start, so the engine walks D's own 256-wide u16 table instead and
// reads the final DFA state's row directly; |D| ≤ core.MaxDFAStates, so
// that table always fits u16 and is small (|D| ≤ |S_d|). The D-SFA's
// table serves the rest — p > 1 sub-chunks, ComposeChunk's carried
// mappings, and Match, which is Algorithm 5 itself — and is built on the
// first such walk, once; TableBytes reports what has been built.
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
	layout  TableLayout // resolved D-SFA layout; never LayoutAuto
	// dtab is D's own 256-wide table, built at construction: the
	// known-start walk. Nil for LayoutClass, which walks D's class table.
	dtab []uint16
	// sfaTab is the D-SFA's table in the resolved layout, published once
	// by the first walk whose start is unknown (sfaTables).
	sfaTab  atomic.Pointer[tables]
	sfaOnce sync.Once
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
	if m.layout != LayoutClass {
		m.dtab = core.DFATable256[uint16](s.D)
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

// runChunk walks one chunk of the D-SFA from the identity state through
// the resolved table layout.
func (m *MultiSFA) runChunk(chunk []byte) int32 {
	if m.layout == LayoutClass {
		q := m.s.Start
		d := m.s
		for _, b := range chunk {
			q = d.NextByte(q, b)
		}
		return q
	}
	return m.sfaTables().run(m.layout, m.s.Start, chunk)
}

// sfaTables returns the D-SFA's 256-wide table, building it on the first
// call: only walks whose start is unknown need it, and many engines never
// make one.
func (m *MultiSFA) sfaTables() *tables {
	if t := m.sfaTab.Load(); t != nil {
		return t
	}
	m.sfaOnce.Do(func() {
		t := &tables{}
		switch m.layout {
		case LayoutU8:
			t.u8 = m.s.Table256U8()
		case LayoutU16:
			t.u16 = m.s.Table256U16()
		case LayoutI32:
			t.i32 = m.s.Table256()
		}
		m.sfaTab.Store(t)
	})
	return m.sfaTab.Load()
}

// runDFA walks text from D.Start and returns the DFA state it reaches:
// the known-start walk, one lookup per byte in D's own table.
func (m *MultiSFA) runDFA(text []byte) int32 {
	if m.dtab == nil {
		return m.s.D.Run(m.s.D.Start, text)
	}
	return run256U16(m.dtab, m.s.D.Start, text)
}

// sequential reports whether a walk of n bytes runs as one chunk on the
// calling goroutine: always at p = 1, and below streamSequentialMax on the
// pooled path, where submission and reduction would cost more than the
// walk. Spawn mode keeps forking, since thread creation is what it
// measures (Fig. 10).
func (m *MultiSFA) sequential(n int) bool {
	return m.threads < 2 || (!m.spawn && n < streamSequentialMax)
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

// run is Algorithm 5 with p chunks — every chunk but the first starts at
// an unknown state — and returns the final combined-DFA state.
func (m *MultiSFA) run(text []byte) int32 {
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

// final returns the DFA state text reaches from D.Start: D's own walk
// when the input runs as one chunk, else Algorithm 5 over the D-SFA.
func (m *MultiSFA) final(text []byte) int32 {
	if m.sequential(len(text)) {
		return m.runDFA(text)
	}
	return m.run(text)
}

// MatchMask scans text once and writes the accept bitmask — bit r set iff
// rule r matches the whole input — into dst, which must have Words()
// capacity. It returns dst[:Words()].
func (m *MultiSFA) MatchMask(text []byte, dst []uint64) []uint64 {
	return append(dst[:0], m.row(m.final(text))...)
}

// OrMask scans text sequentially on the calling goroutine and ORs the
// resulting accept bitmask into dst, which must have Words() length.
// This is the candidate-window primitive of the literal prefilter: a
// window is a short slice, so the chunk-parallel dispatch of MatchMask
// would cost more than the walk, and OR-accumulation lets overlapping
// windows of one input share a result buffer. The walk starts at
// D.Start, so it is D's own.
func (m *MultiSFA) OrMask(text []byte, dst []uint64) {
	for i, w := range m.row(m.runDFA(text)) {
		dst[i] |= w
	}
}

// Match implements Matcher: whole-input acceptance by any rule — the
// accept bit of the DFA under the D-SFA, which accepts where some rule
// does (a one-rule mask is that bit; the rule-set product accepts where
// any component does). It always walks the D-SFA, so the harness's
// figures measure the paper's engine. As one chunk it is Algorithm 5's
// own test: the chunk's SFA state is in Fs.
func (m *MultiSFA) Match(text []byte) bool {
	if m.sequential(len(text)) {
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

// Layout returns the resolved D-SFA table layout.
func (m *MultiSFA) Layout() TableLayout { return m.layout }

// TableBytes returns the resident size of the 256-wide tables built so
// far: D's own, and the D-SFA's once a walk with an unknown start has
// built it (0 for LayoutClass, which walks the class-indexed tables).
func (m *MultiSFA) TableBytes() int64 {
	n := int64(len(m.dtab)) * 2
	if t := m.sfaTab.Load(); t != nil {
		n += t.memoryBytes()
	}
	return n
}

// Name implements Matcher.
func (m *MultiSFA) Name() string {
	mode := ""
	if m.spawn {
		mode = "-spawn"
	}
	return fmt.Sprintf("sfa-p%d-%s-%s%s", m.threads, m.red, m.layout, mode)
}
