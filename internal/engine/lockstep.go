package engine

import (
	"sync"
	"sync/atomic"
	"time"
)

// Lock-step walking: k table walks over one byte slice in a single loop.
//
// A table walk is a serial load-to-load chain — the next lookup's
// address is the previous lookup's result — so one walk is bound by
// load latency and leaves the load ports idle. Every walk here starts
// from a state known without looking at the input — D.Start for a walk
// of the whole slice, the D-SFA's identity for a p > 1 sub-chunk or a
// carried-mapping chunk — so the k shards of a rule set give k
// *independent* chains over the same byte: their loads overlap, and k
// shards cost little more than one (the idea Ko et al. apply to k
// speculative start states of one DFA, applied here to k automata with
// one certain start each).
//
// The kernels are specialised for the u16 layout — the only layout a
// shard of more than 256 states resolves to under the default shard
// budget — at widths 2, 3 and 4; more than four engines take ⌈k/4⌉
// passes. Everything else (lazy engines, other layouts, spawn mode, a
// lone engine) falls back to that engine's own single walk, so a
// Lockstep pass is always verdict-identical to the k separate calls it
// replaces: the kernels only produce final DFA states (a walk of D from
// D.Start) or chunk-final D-SFA states, and the mask-row / ApplyVec /
// ComposeVec steps that consume them are the ones the single-engine
// paths run.

// lockstepWidth is the widest kernel: how many engines one pass of the
// byte slice advances (BenchmarkLockstepWalk_k*, README).
const lockstepWidth = 4

func run256U16x2(t0, t1 []uint16, s0, s1 int32, text []byte) (int32, int32) {
	q0, q1 := uint32(uint16(s0)), uint32(uint16(s1))
	for _, b := range text {
		c := uint32(b)
		q0 = uint32(t0[q0<<8|c])
		q1 = uint32(t1[q1<<8|c])
	}
	return int32(q0), int32(q1)
}

func run256U16x3(t0, t1, t2 []uint16, s0, s1, s2 int32, text []byte) (int32, int32, int32) {
	q0, q1, q2 := uint32(uint16(s0)), uint32(uint16(s1)), uint32(uint16(s2))
	for _, b := range text {
		c := uint32(b)
		q0 = uint32(t0[q0<<8|c])
		q1 = uint32(t1[q1<<8|c])
		q2 = uint32(t2[q2<<8|c])
	}
	return int32(q0), int32(q1), int32(q2)
}

func run256U16x4(t0, t1, t2, t3 []uint16, s0, s1, s2, s3 int32, text []byte) (int32, int32, int32, int32) {
	q0, q1 := uint32(uint16(s0)), uint32(uint16(s1))
	q2, q3 := uint32(uint16(s2)), uint32(uint16(s3))
	for _, b := range text {
		c := uint32(b)
		q0 = uint32(t0[q0<<8|c])
		q1 = uint32(t1[q1<<8|c])
		q2 = uint32(t2[q2<<8|c])
		q3 = uint32(t3[q3<<8|c])
	}
	return int32(q0), int32(q1), int32(q2), int32(q3)
}

// walkTable is the u16 table and start state of one engine's walk: D's
// own from D.Start when the start is known, else the D-SFA's from its
// identity.
func (m *MultiSFA) walkTable(known bool) ([]uint16, int32) {
	if known {
		return m.dtab, m.s.D.Start
	}
	return m.sfaTables().u16, m.s.Start
}

// lockstepRun walks every engine of ms (all LayoutU16) over text,
// lockstepWidth at a time, and stores engine j's final state in
// out[j*stride]: the DFA state text reaches from D.Start when known is
// set, else the chunk-final D-SFA state.
//
//sfa:noalloc
func lockstepRun(ms []*MultiSFA, known bool, text []byte, out []int32, stride int) {
	for len(ms) > 0 {
		switch {
		case len(ms) >= lockstepWidth:
			t0, s0 := ms[0].walkTable(known)
			t1, s1 := ms[1].walkTable(known)
			t2, s2 := ms[2].walkTable(known)
			t3, s3 := ms[3].walkTable(known)
			out[0], out[stride], out[2*stride], out[3*stride] = run256U16x4(t0, t1, t2, t3, s0, s1, s2, s3, text)
			if ms = ms[lockstepWidth:]; len(ms) > 0 {
				out = out[lockstepWidth*stride:]
			}
		case len(ms) == 3:
			t0, s0 := ms[0].walkTable(known)
			t1, s1 := ms[1].walkTable(known)
			t2, s2 := ms[2].walkTable(known)
			out[0], out[stride], out[2*stride] = run256U16x3(t0, t1, t2, s0, s1, s2, text)
			return
		case len(ms) == 2:
			t0, s0 := ms[0].walkTable(known)
			t1, s1 := ms[1].walkTable(known)
			out[0], out[stride] = run256U16x2(t0, t1, s0, s1, text)
			return
		default:
			t0, s0 := ms[0].walkTable(known)
			out[0] = run256U16(t0, s0, text)
			return
		}
	}
}

// ShardEngine is what a Lockstep pass needs of each engine it is given:
// the single-engine calls a pass falls back to, plus the cost account
// the pass books them to. MultiSFA and LazyMultiSFA implement it.
type ShardEngine interface {
	MatchMask(text []byte, dst []uint64) []uint64
	OrMask(text []byte, dst []uint64)
	ComposeChunk(cur, tmp []int16, chunk []byte) ([]int16, []int16)
	Charge(c Cost)
}

// Lockstep runs the engines of one rule set over the same bytes in one
// pass. Engines are addressed by their index in the slice NewLockstep
// was given (a rule set's shard index), and every call names the subset
// it wants as a list of such indices; result buffers are indexed the
// same way, so callers keep one per-shard array for every subset they
// ever select. With Threads > 1 a large input is cut into the engines'
// p sub-chunks exactly as a single engine would cut it, each sub-chunk
// runs on the worker pool, and the lock-step loop runs inside each
// task. Safe for concurrent use; steady-state calls allocate nothing.
//
// MatchMasks and ComposeChunks book what they run to the engines' cost
// accounts — a shared walk split evenly over the engines that took part,
// a fallback call timed on its own; OrMasks, the candidate-window form,
// books nothing, because its caller times and counts the block's windows
// for every engine at once.
type Lockstep struct {
	engines []ShardEngine
	eager   []*MultiSFA // eager[i] != nil iff engine i can join a lock-step walk
	threads int
	pool    *Pool
	// Pass scratch. spare keeps one context out of the garbage
	// collector's reach — a sync.Pool is emptied by every cycle, and a
	// rule set driven by one stream at a time should not allocate a
	// context per cycle; concurrent passes overflow into ctxs.
	spare atomic.Pointer[lockCtx]
	ctxs  sync.Pool // of *lockCtx
}

// NewLockstep groups engines for lock-step passes. An engine joins the
// shared walk when it is an eager MultiSFA in the u16 layout on the
// pooled dispatch path, with the same thread count and pool as the
// first such engine; every other engine is served by its own methods.
func NewLockstep(engines []ShardEngine) *Lockstep {
	g := &Lockstep{engines: engines, eager: make([]*MultiSFA, len(engines))}
	for i, e := range engines {
		m, ok := e.(*MultiSFA)
		if !ok || m.layout != LayoutU16 || m.spawn {
			continue
		}
		if g.pool == nil {
			g.threads, g.pool = m.threads, m.pool
		}
		if m.threads == g.threads && m.pool == g.pool {
			g.eager[i] = m
		}
	}
	if g.threads < 1 {
		g.threads = 1
	}
	k, p := len(engines), g.threads
	g.ctxs.New = func() any {
		return &lockCtx{
			ms:     make([]*MultiSFA, 0, k),
			idx:    make([]int, 0, k),
			locals: make([]int32, k*p),
		}
	}
	return g
}

func (g *Lockstep) get() *lockCtx {
	if c := g.spare.Swap(nil); c != nil {
		return c
	}
	return g.ctxs.Get().(*lockCtx)
}

func (g *Lockstep) put(c *lockCtx) {
	if !g.spare.CompareAndSwap(nil, c) {
		g.ctxs.Put(c)
	}
}

// Threads returns how many sub-chunks a pass cuts a large input into.
func (g *Lockstep) Threads() int { return g.threads }

// lockCtx is one pass's scratch: the engines walking together, their
// indices, and the k×p chunk-final states, engine-major, so that engine
// j's are the contiguous locals the single-engine folds take. known is
// set when the pass walked D from D.Start as one chunk, so each engine's
// one local is already its final DFA state.
type lockCtx struct {
	job    jobState
	text   []byte
	p      int
	known  bool
	ms     []*MultiSFA
	idx    []int
	locals []int32
}

func (c *lockCtx) runChunk(i int) {
	lo, hi := span(len(c.text), c.p, i)
	lockstepRun(c.ms, false, c.text[lo:hi], c.locals[i:], c.p)
}

// pick selects the members of sel that walk together into c.ms / c.idx
// — none when fewer than two can, since a lone engine's own walk is the
// same loop — and reports whether there are any.
//
//sfa:noalloc
func (g *Lockstep) pick(c *lockCtx, sel []int) bool {
	c.ms, c.idx = c.ms[:0], c.idx[:0]
	for _, i := range sel {
		if m := g.eager[i]; m != nil {
			c.ms = append(c.ms, m)
			c.idx = append(c.idx, i)
		}
	}
	if len(c.ms) < 2 {
		c.ms, c.idx = c.ms[:0], c.idx[:0]
	}
	return len(c.idx) > 0
}

// walk runs the picked engines over text, cut into c.p sub-chunks. With
// known set (the mask forms) a walk that runs as one chunk is D's own
// from D.Start; ComposeChunks needs the chunk's mapping, so it always
// walks the D-SFA.
//
//sfa:noalloc
func (g *Lockstep) walk(c *lockCtx, text []byte, known bool) {
	if g.threads < 2 || len(text) < streamSequentialMax {
		c.p, c.known = 1, known
		lockstepRun(c.ms, known, text, c.locals, 1)
		return
	}
	c.p, c.known, c.text = g.threads, false, text
	dispatchChunks(c, &c.job, g.pool, false, c.p)
	c.text = nil
}

// localsOf returns the sub-chunk states of the j-th picked engine.
func (c *lockCtx) localsOf(j int) []int32 { return c.locals[j*c.p : (j+1)*c.p] }

// final returns the DFA state the j-th picked engine m reached from
// D.Start over the pass's whole text.
func (c *lockCtx) final(j int, m *MultiSFA) int32 {
	if c.known {
		return c.locals[j]
	}
	return m.finalState(c.localsOf(j))
}

// picked reports whether sel member i took part in the walk, advancing
// the cursor *j over c.idx (a subsequence of sel).
func (c *lockCtx) picked(j *int, i int) bool {
	if *j < len(c.idx) && c.idx[*j] == i {
		*j++
		return true
	}
	return false
}

// charge books a timed lock-step walk on the engines that took part:
// one chunk and n bytes each, the elapsed time split evenly.
func (g *Lockstep) charge(c *lockCtx, start time.Time, n int) {
	share := time.Since(start).Nanoseconds() / int64(len(c.idx))
	for _, i := range c.idx {
		g.eager[i].Charge(Cost{Ns: share, Chunks: 1, Bytes: int64(n)})
	}
}

// chargeOne books a fallback call on engine i, started at start: one
// chunk of n bytes and the elapsed time.
func (g *Lockstep) chargeOne(i int, start time.Time, n int) {
	g.engines[i].Charge(Cost{Ns: time.Since(start).Nanoseconds(), Chunks: 1, Bytes: int64(n)})
}

// MatchMasks is engines[i].MatchMask(text, dsts[i]) for every i in sel:
// afterwards dsts[i][:Words()] holds engine i's accept bitmask of the
// whole text.
//
//sfa:noalloc
func (g *Lockstep) MatchMasks(sel []int, text []byte, dsts [][]uint64) {
	if len(sel) == 0 {
		return
	}
	c := g.get()
	if g.pick(c, sel) {
		start := time.Now()
		g.walk(c, text, true)
		for j, i := range c.idx {
			m := g.eager[i]
			copy(dsts[i][:m.words], m.row(c.final(j, m)))
		}
		g.charge(c, start, len(text))
	}
	j := 0
	for _, i := range sel {
		if !c.picked(&j, i) {
			start := time.Now()
			g.engines[i].MatchMask(text, dsts[i])
			g.chargeOne(i, start, len(text))
		}
	}
	g.put(c)
}

// OrMasks is engines[i].OrMask(text, dsts[i]) for every i in sel: the
// candidate-window primitive, for a window every selected engine must
// verify. Like OrMask it books nothing: the caller times and counts the
// block's windows.
//
//sfa:noalloc
func (g *Lockstep) OrMasks(sel []int, text []byte, dsts [][]uint64) {
	c := g.get()
	if g.pick(c, sel) {
		g.walk(c, text, true)
		for j, i := range c.idx {
			m := g.eager[i]
			dst := dsts[i]
			for w, bits := range m.row(c.final(j, m)) {
				dst[w] |= bits
			}
		}
	}
	j := 0
	for _, i := range sel {
		if !c.picked(&j, i) {
			g.engines[i].OrMask(text, dsts[i])
		}
	}
	g.put(c)
}

// ComposeChunks is curs[i], tmps[i] = engines[i].ComposeChunk(curs[i],
// tmps[i], chunk) for every i in sel: one walk of the chunk, then each
// engine's own ⊙-fold into its carried mapping.
//
//sfa:noalloc
func (g *Lockstep) ComposeChunks(sel []int, curs, tmps [][]int16, chunk []byte) {
	if len(chunk) == 0 || len(sel) == 0 {
		return
	}
	c := g.get()
	if g.pick(c, sel) {
		start := time.Now()
		g.walk(c, chunk, false)
		for j, i := range c.idx {
			m := g.eager[i]
			curs[i], tmps[i] = composeLocals(m.s, curs[i], tmps[i], c.localsOf(j))
			if m.boundary != nil {
				m.boundary.Record(int32(curs[i][m.s.D.Start]))
			}
		}
		g.charge(c, start, len(chunk))
	}
	j := 0
	for _, i := range sel {
		if !c.picked(&j, i) {
			start := time.Now()
			curs[i], tmps[i] = g.engines[i].ComposeChunk(curs[i], tmps[i], chunk)
			g.chargeOne(i, start, len(chunk))
		}
	}
	g.put(c)
}
