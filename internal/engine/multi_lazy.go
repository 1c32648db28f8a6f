package engine

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/obs"
)

// LazyMultiSFA is the multi-pattern engine over a lazy combined D-SFA
// (core.LazyTuple): the same scan surface as MultiSFA — MatchMask,
// Match, and the streaming carried-mapping protocol — but
// product states are materialized on demand during scanning and may be
// evicted under the table budget between (never during) chunks.
//
// The carried mapping differs from MultiSFA's: there is no product DFA,
// so instead of a |Dprod|-long vector the carried value is the
// concatenation of the per-component mapping vectors (length Σ|Di|),
// composed blockwise. That representation is what makes the streaming
// protocol eviction-tolerant — it denotes the transformation itself and
// never references interned state ids, so a mapping carried across a
// reset stays valid. MatchMask verdicts are byte-identical to the eager
// engine's on everything the eager path can compile, and to per-rule
// isolated scanning always.
//
// There is no table layout to choose (rows are class-indexed and grow at
// run time) and no mask table (verdict bits are read per component
// block), so layout options do not apply; pool/spawn options do.
//
// A consumer that knows both the rule and the start state needs none of
// that: OrRule walks the one rule's own DFA — the literal prefilter's
// verifier for a window-mode lazy shard, whose every candidate window
// starts at the automaton's start state and was opened by a literal that
// names the rule. The combined automaton's tables are built by the first
// call that needs a combined walk (core.LazyTuple), so an engine used
// only through OrRule holds the rule DFAs and nothing else, and charges
// the table budget nothing.
type LazyMultiSFA struct {
	t       *core.LazyTuple
	words   int
	threads int
	spawn   bool
	pool    *Pool
	id      uint64
	ctxs    sync.Pool // of *lazyMultiCtx

	// attr is the always-on per-shard cost account (compose ns, chunks,
	// bytes, candidate windows), booked by callers; see attribution.
	attr attribution
}

// NewLazyMultiSFA wraps a lazy combined automaton as a shard engine.
// Rule bit i of every result mask belongs to component i of t.
func NewLazyMultiSFA(t *core.LazyTuple, threads int, opts ...Option) *LazyMultiSFA {
	m := newLazyMultiSFA(t, threads, opts)
	// The budget keeps a process-wide registry entry (and therefore a
	// strong reference) for every lazy structure that has built its
	// tables; without a release hook, dropping a rule set would leak its
	// charged bytes forever. Engines have no Close in this codebase —
	// reclamation rides the collector instead.
	runtime.SetFinalizer(m, func(m *LazyMultiSFA) { m.t.Close() })
	return m
}

func newLazyMultiSFA(t *core.LazyTuple, threads int, opts []Option) *LazyMultiSFA {
	if threads < 1 {
		threads = 1
	}
	o := buildOpts(opts)
	id := o.buildID
	if id == 0 {
		id = buildSeq.Add(1)
	}
	m := &LazyMultiSFA{
		t:       t,
		words:   (t.Rules() + 63) / 64,
		threads: threads,
		spawn:   o.spawn,
		pool:    o.pool,
		id:      id,
	}
	// Neither the constructor nor a context refers back to m: a finalizer
	// never runs on an object that reaches itself.
	words := m.words
	m.ctxs.New = func() any {
		c := &lazyMultiCtx{t: t, threads: threads, vecs: make([][]int16, threads)}
		for i := range c.vecs {
			c.vecs[i] = make([]int16, t.VecLen())
		}
		c.tmp = make([]int16, t.VecLen())
		c.mask = make([]uint64, words)
		return c
	}
	return m
}

// NewSFALazy is Algorithm 5 over an on-the-fly SFA (Sect. V-A) for one
// pattern: the one-rule LazyMultiSFA, whose states are constructed the
// first time any thread needs them. It trades Table III's up-front
// construction time for a slower per-byte step; ablation A3 quantifies
// the trade. maxStates caps the resident states (0 = the core.LazyTuple
// default); reaching the cap resets the structure mid-scan, which never
// changes a verdict.
//
// The tuple charges a budget of its own, which nothing else reaches, so
// the engine needs no finalizer: the collector frees the tuple and its
// budget with it. A finalizer would keep them one collection longer,
// and a caller that compiles patterns in a loop would outrun the
// collector.
func NewSFALazy(d *dfa.DFA, threads, maxStates int, opts ...Option) (*LazyMultiSFA, error) {
	t, err := core.NewLazyTuple([]*dfa.DFA{d}, core.LazyTupleOptions{MaxStates: maxStates, CompMaxStates: maxStates})
	if err != nil {
		return nil, err
	}
	return newLazyMultiSFA(t, threads, opts), nil
}

// lazyMultiCtx is the per-call scratch: one chunk-result vector per
// thread, a compose scratch, and a mask buffer for Match.
type lazyMultiCtx struct {
	job     jobState
	t       *core.LazyTuple
	threads int
	text    []byte
	vecs    [][]int16
	tmp     []int16
	mask    []uint64
}

func (c *lazyMultiCtx) runChunk(i int) {
	lo, hi := span(len(c.text), c.threads, i)
	c.t.RunToVec(c.text[lo:hi], c.vecs[i])
}

// runToVec scans text and leaves the induced transformation in a
// context-owned vector (returned). Small inputs run sequentially —
// the fork/fold overhead of Σ|Di|-long vectors needs a big chunk to
// amortize.
func (m *LazyMultiSFA) runToVec(c *lazyMultiCtx, text []byte) []int16 {
	p := m.threads
	if p < 2 || len(text) < streamSequentialMax {
		m.t.RunToVec(text, c.vecs[0])
		return c.vecs[0]
	}
	c.text = text
	dispatchChunks(c, &c.job, m.pool, m.spawn, p)
	c.text = nil
	cur, tmp := c.vecs[0], c.tmp
	for i := 1; i < p; i++ {
		m.t.Compose(tmp, cur, c.vecs[i])
		cur, tmp = tmp, cur
	}
	c.tmp = tmp
	return cur
}

// MatchMask scans text once and writes the accept bitmask — bit r set
// iff rule r matches the whole input — into dst, which must have
// Words() capacity. It returns dst[:Words()].
func (m *LazyMultiSFA) MatchMask(text []byte, dst []uint64) []uint64 {
	dst = dst[:m.words]
	for i := range dst {
		dst[i] = 0
	}
	c := m.ctxs.Get().(*lazyMultiCtx)
	m.t.OrAccept(m.runToVec(c, text), dst)
	m.ctxs.Put(c)
	return dst
}

// OrRule walks rule's own DFA over window from its start state and sets
// bit rule of dst if it accepts: the verdict a walk of the combined
// automaton would give that bit, for the price of one small table walk
// — no context, no lock, no budget traffic, no fill. Like every walk
// of the engine it keeps no account of its own; the caller books a
// block's windows at once (Charge).
//
//sfa:noalloc
func (m *LazyMultiSFA) OrRule(rule int, window []byte, dst []uint64) {
	if m.t.Component(rule).Accepts(window) {
		dst[rule>>6] |= 1 << (rule & 63)
	}
}

// Match implements Matcher: whole-input acceptance by any rule.
func (m *LazyMultiSFA) Match(text []byte) bool {
	c := m.ctxs.Get().(*lazyMultiCtx)
	for i := range c.mask {
		c.mask[i] = 0
	}
	m.t.OrAccept(m.runToVec(c, text), c.mask)
	any := false
	for _, w := range c.mask {
		if w != 0 {
			any = true
			break
		}
	}
	m.ctxs.Put(c)
	return any
}

// Words returns the mask width in uint64 words.
func (m *LazyMultiSFA) Words() int { return m.words }

// BuildID returns the engine's process-unique construction id.
func (m *LazyMultiSFA) BuildID() uint64 { return m.id }

// MappingLen returns the carried-mapping length: Σ|Di| over the
// component DFAs (block-diagonal representation; see the type comment).
func (m *LazyMultiSFA) MappingLen() int { return m.t.VecLen() }

// InitMapping writes the identity mapping into cur.
func (m *LazyMultiSFA) InitMapping(cur []int16) { m.t.Identity(cur) }

// ComposeChunk advances a carried mapping by one chunk of input: the
// chunk is scanned from the identity and folded in blockwise. cur and
// tmp are the caller's ping-pong pair; the updated pair is returned in
// (current, scratch) order. The carried value survives evictions of the
// underlying lazy automaton — it is a denotation, not a state id.
//
//sfa:noalloc
func (m *LazyMultiSFA) ComposeChunk(cur, tmp []int16, chunk []byte) ([]int16, []int16) {
	if len(chunk) == 0 {
		return cur, tmp
	}
	c := m.ctxs.Get().(*lazyMultiCtx)
	m.t.Compose(tmp, cur, m.runToVec(c, chunk))
	m.ctxs.Put(c)
	return tmp, cur
}

// MatchMaskFrom writes the accept bitmask of a carried mapping into
// dst, which must have Words() capacity. It returns dst[:Words()].
//
//sfa:noalloc
//sfa:borrowed cur
func (m *LazyMultiSFA) MatchMaskFrom(cur []int16, dst []uint64) []uint64 {
	dst = dst[:m.words]
	for i := range dst {
		dst[i] = 0
	}
	m.t.OrAccept(cur, dst)
	return dst
}

// ComposeMask merges two carried mappings: h ← "f then g", blockwise.
// h must not alias f or g.
//
//sfa:borrowed f g
func (m *LazyMultiSFA) ComposeMask(h, f, g []int16) { m.t.Compose(h, f, g) }

// TableBytes returns the bytes currently charged to the table budget —
// the lazy analogue of the eager engines' materialized table size; 0
// while the combined automaton has not been needed.
func (m *LazyMultiSFA) TableBytes() int64 { return m.t.Stats().ResidentBytes }

// Stats exposes the underlying structure's counters.
func (m *LazyMultiSFA) Stats() core.LazyTupleStats { return m.t.Stats() }

// Name implements Matcher.
func (m *LazyMultiSFA) Name() string {
	mode := ""
	if m.spawn {
		mode = "-spawn"
	}
	return fmt.Sprintf("sfa-lazy-p%d%s", m.threads, mode)
}

// Info implements the shard-engine stats surface.
func (m *LazyMultiSFA) Info() Info {
	st := m.t.Stats()
	layout := "lazy-rules" // only the per-rule DFAs exist
	if m.t.Built() {
		layout = "lazy"
	}
	inf := Info{
		DFAStates:     m.t.VecLen(), // Σ|Di|: no product DFA exists
		SFAStates:     st.States,
		Layout:        layout,
		TableBytes:    st.ResidentBytes,
		Lazy:          true,
		ResidentBytes: st.ResidentBytes,
		Fills:         st.Fills,
		Evictions:     st.Resets,
	}
	m.attr.fill(&inf)
	return inf
}

// Info describes one shard engine for stats reporting, covering both
// the eager (table-backed) and lazy (budgeted, evictable) kinds.
type Info struct {
	DFAStates  int    // eager: combined minimal DFA live states; lazy: Σ|Di|
	SFAStates  int    // eager: combined D-SFA live states; lazy: resident tuple states
	Layout     string // transition-table layout; lazy: "lazy" once the combined automaton is built, "lazy-rules" while only the rule DFAs exist
	TableBytes int64  // resident table bytes (lazy: budget-charged bytes)

	Lazy          bool  // engine builds states on demand under a budget
	ResidentBytes int64 // lazy only: bytes charged to the table budget
	Fills         int64 // lazy only: states materialized since build
	Evictions     int64 // lazy only: whole-structure resets

	// HotStates is the chunk-boundary-state frequency table (descending
	// count) collected when the engine was built with WithScanStats —
	// the concentration measurement Ko-style speculative chunk matching
	// needs. HotOther counts boundary hits that fell outside the fixed
	// table. Nil/0 when stats are off or the engine is lazy.
	HotStates []obs.StateCount
	HotOther  int64

	// Always-on cost attribution, accumulated over the engine's whole
	// lifetime (hot reloads reuse engines, so these survive reloads):
	// compose time, chunks and bytes the engine actually walked, and
	// prefilter candidate windows it verified.
	ComposeNs   int64
	ScanChunks  int64
	ScanBytes   int64
	CandWindows int64
}

// Info implements the shard-engine stats surface for the eager engine.
func (m *MultiSFA) Info() Info {
	inf := Info{
		DFAStates:  m.s.D.LiveSize(),
		SFAStates:  m.s.LiveSize(),
		Layout:     m.layout.String(),
		TableBytes: m.TableBytes(),
	}
	if m.boundary != nil {
		inf.HotStates, inf.HotOther = m.boundary.Snapshot()
	}
	m.attr.fill(&inf)
	return inf
}
