package engine

import (
	"sync"
	"sync/atomic"
	"time"
)

// Lock-step walking: several table walks in a single loop.
//
// A table walk is a serial load-to-load chain — the next lookup's
// address is the previous lookup's result — so one walk is bound by
// load latency and leaves the load ports idle. Every walk here starts
// from a state known without looking at the input — D.Start for a walk
// of the whole slice or of a bounded pass's piece, the D-SFA's identity
// for any other p > 1 sub-chunk or a carried-mapping chunk — so the k
// shards of a rule set give k *independent* chains over the same byte:
// their loads overlap, and k shards cost little more than one (the idea
// Ko et al. apply to k speculative start states of one DFA, applied
// here to k automata with one certain start each).
//
// A bounded pass (OrMasks: a candidate window, where no occurrence is
// longer than the caller's overlap — the window contract of
// internal/multi/prefilter.go) needs no unknown start even when it is
// cut, and cuts twice. At p > 1 a window of 4 KiB or more is split into
// the engines' p sub-chunks, each backed up over the overlap−1 bytes an
// occurrence crossing its cut can begin in and walked from D.Start on
// the pool. Inside each such piece — the whole window at p = 1 — the
// engines walk in groups of four over the same bytes, and each engine
// left over walks four overlapped quarters of the piece in one loop
// (quarterRun): four chains again, so three live shards cost what
// three-quarters of one four-wide pass does rather than a whole
// three-wide one, and a lone shard a quarter of its own walk. Groups of
// four keep the one-text kernel, which loads one byte per step where
// the quartered kernel loads four. No bounded pass reads the D-SFA, at
// any p.
//
// Which engines a pass takes depends only on whether its walks start
// known, and begin decides that once per pass. A pass whose walks all
// start at D.Start — OrMasks, and MatchMasks run as one chunk (p = 1, or
// under 4 KiB) — walks only D, so it takes every MultiSFA with D's
// 256-wide table: every layout but the class table, spawn mode included.
// A pass that may start unknown — MatchMasks cut into p > 1 sub-chunks,
// and ComposeChunks, which needs the mapping — walks the D-SFA's table
// and is specialised for the u16 layout, the only one a shard of more
// than 256 states resolves to under the default shard budget: it takes
// the pooled u16 engines, a lone one included. Kernels are 1 to 4 wide,
// with ⌈k/4⌉ passes for more than four engines. MatchMasks and
// ComposeChunks hand every engine they did not take (a lazy engine, the
// class table, another layout or spawn mode on an unknown start) to its
// own single walk; OrMasks has no such fallback, since its callers give
// it only eager engines (the window shards of internal/multi verified
// whole). A pass is verdict-identical to the k separate walks it
// replaces: the kernels only produce final DFA states (a walk of D from
// D.Start) or chunk-final D-SFA states, and the mask-row / ApplyVec /
// ComposeVec steps that consume them are the ones the single-engine
// paths run.

// lockstepWidth is the widest kernel: how many chains one pass of the
// byte slice advances — engines over one text, or quarters of one
// engine's text (BenchmarkLockstepWalk_k*, README).
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

// run256U16Quarters is four chains through one table, each over its
// own text, the texts of equal length: lane l walks x_l from s. The
// loop is unrolled twice; one table keeps every live value in a
// register, where a table per lane spills to the stack.
func run256U16Quarters(t []uint16, s int32, x0, x1, x2, x3 []byte) (int32, int32, int32, int32) {
	q0 := uint32(uint16(s))
	q1, q2, q3 := q0, q0, q0
	n := len(x0)
	x1, x2, x3 = x1[:n], x2[:n], x3[:n]
	i := 0
	for ; i+2 <= n; i += 2 {
		q0 = uint32(t[q0<<8|uint32(x0[i])])
		q1 = uint32(t[q1<<8|uint32(x1[i])])
		q2 = uint32(t[q2<<8|uint32(x2[i])])
		q3 = uint32(t[q3<<8|uint32(x3[i])])
		q0 = uint32(t[q0<<8|uint32(x0[i+1])])
		q1 = uint32(t[q1<<8|uint32(x1[i+1])])
		q2 = uint32(t[q2<<8|uint32(x2[i+1])])
		q3 = uint32(t[q3<<8|uint32(x3[i+1])])
	}
	if i < n {
		q0 = uint32(t[q0<<8|uint32(x0[i])])
		q1 = uint32(t[q1<<8|uint32(x1[i])])
		q2 = uint32(t[q2<<8|uint32(x2[i])])
		q3 = uint32(t[q3<<8|uint32(x3[i])])
	}
	return int32(q0), int32(q1), int32(q2), int32(q3)
}

// quarterRun walks m's D from D.Start over text as four overlapped
// quarters in one loop and stores quarter l's final state in out[l].
// Quarter l ends where the l-th of four even spans of text ends, hi_l,
// and all four are L = min(n, ⌈n/4⌉ + back) bytes long — text[hi_l−L :
// hi_l], or text[:L] where hi_l < L — so each reaches back bytes before
// its span and no pass is longer than the unsplit walk. An occurrence at
// most back+1 bytes long lies inside the quarter whose span holds its
// last byte.
//
//sfa:noalloc
func quarterRun(m *MultiSFA, text []byte, back int, out []int32) {
	n := len(text)
	l := min(n, (n+lockstepWidth-1)/lockstepWidth+back)
	var x [lockstepWidth][]byte
	for i := range x {
		_, hi := span(n, lockstepWidth, i)
		lo := max(hi-l, 0)
		x[i] = text[lo : lo+l]
	}
	out[0], out[1], out[2], out[3] = run256U16Quarters(m.dtab, m.s.D.Start, x[0], x[1], x[2], x[3])
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

// lockstepRun walks every engine of ms over text, lockstepWidth at a
// time, and stores engine j's final state in out[j*stride]: the DFA
// state text reaches from D.Start when known is set, else the
// chunk-final D-SFA state (the engines are then all LayoutU16).
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
			out[0] = run256(t0, s0, text)
			return
		}
	}
}

// ShardEngine is what a Lockstep pass needs of each engine it is given:
// the single-engine calls MatchMasks and ComposeChunks fall back to,
// plus the cost account the pass books them to. MultiSFA and
// LazyMultiSFA implement it.
type ShardEngine interface {
	MatchMask(text []byte, dst []uint64) []uint64
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
	// eager[i] is engine i when it is a MultiSFA with D's 256-wide table:
	// every pass that starts known takes it. split[i] is set when a pass
	// that may start unknown takes it too: it is LayoutU16 and pooled,
	// with the thread count and pool of the first pooled eager engine.
	eager   []*MultiSFA
	split   []bool
	threads int
	pool    *Pool
	// Pass scratch. spare keeps one context out of the garbage
	// collector's reach — a sync.Pool is emptied by every cycle, and a
	// rule set driven by one stream at a time should not allocate a
	// context per cycle; concurrent passes overflow into ctxs.
	spare atomic.Pointer[lockCtx]
	ctxs  sync.Pool // of *lockCtx
}

// NewLockstep groups engines for lock-step passes, which cut their input
// for the thread count and pool of the first pooled eager engine. Which
// engines a pass takes is begin's rule.
func NewLockstep(engines []ShardEngine) *Lockstep {
	g := &Lockstep{engines: engines, eager: make([]*MultiSFA, len(engines)), split: make([]bool, len(engines))}
	for i, e := range engines {
		m, ok := e.(*MultiSFA)
		if !ok || m.dtab == nil {
			continue
		}
		g.eager[i] = m
		if m.spawn {
			continue
		}
		if g.pool == nil {
			g.threads, g.pool = m.threads, m.pool
		}
		g.split[i] = m.layout == LayoutU16 && m.threads == g.threads && m.pool == g.pool
	}
	if g.threads < 1 {
		g.threads = 1
	}
	k, p := len(engines), g.threads
	g.ctxs.New = func() any {
		return &lockCtx{
			ms:     make([]*MultiSFA, 0, k),
			idx:    make([]int, 0, k),
			locals: make([]int32, k*p*lockstepWidth),
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
// indices, and their final states, engine-major — engine j's p×lanes
// states, lanes per chunk, so that with one lane they are the contiguous
// chunk locals the single-engine folds take. known is set when every
// chunk of the pass walked D from D.Start, so each local is a final DFA
// state: of the whole text at p = 1, of a sub-chunk that re-walks the
// back bytes before its cut at p > 1 (OrMasks only). In a quartered pass
// (lanes = lockstepWidth) the first grouped engines walk each chunk in
// groups of four and write lane 0 of it; every later one walks it as
// four quarters (quarterRun), one per lane.
type lockCtx struct {
	job     jobState
	text    []byte
	p       int
	known   bool
	back    int
	lanes   int
	grouped int
	ms      []*MultiSFA
	idx     []int
	locals  []int32
}

func (c *lockCtx) runChunk(i int) {
	lo, hi := span(len(c.text), c.p, i)
	if c.known {
		lo = max(lo-c.back, 0)
	}
	text, out, stride := c.text[lo:hi], c.locals[i*c.lanes:], c.p*c.lanes
	lockstepRun(c.ms[:c.grouped], c.known, text, out, stride)
	for j := c.grouped; j < len(c.ms); j++ {
		quarterRun(c.ms[j], text, c.back, out[j*stride:])
	}
}

// unknownSplit is the overlap of a walk whose p > 1 sub-chunks start
// unknown: they walk the D-SFA from its identity.
const unknownSplit = -1

// begin takes a context for a pass over n bytes and decides, once, how
// it walks and which members of sel it takes (c.ms / c.idx, in sel
// order). Below streamSequentialMax the pass is one chunk on the calling
// goroutine, and so is an unbounded pass (overlap unknownSplit) at
// p = 1; at p > 1 that one cuts the input into the engines' p
// sub-chunks, which start unknown. A bounded pass of 4 KiB or more has
// no occurrence longer than overlap: it cuts the input into the p
// sub-chunks (one at p = 1), each backed up over the overlap−1 bytes an
// occurrence crossing its cut can begin in, and quarters each the same
// way for the engines outside the groups of four (runChunk). Every
// occurrence lies inside some piece, every piece inside the input, and
// the automata are search-bracketed; a back-up that reaches past the
// start of the input clamps to it, so the bound needs no relation to the
// piece length. Every walk starts known — D's own from D.Start — unless
// the pass composes a mapping or cuts an unbounded input; a known pass
// takes every eager engine, any other the split ones.
//
//sfa:noalloc
func (g *Lockstep) begin(sel []int, n int, mapping bool, overlap int) *lockCtx {
	c := g.get()
	c.p, c.known, c.back, c.lanes = 1, !mapping, 0, 1
	switch p := g.threads; {
	case n < streamSequentialMax:
	case overlap == unknownSplit:
		if p > 1 {
			c.p, c.known = p, false
		}
	default:
		c.p, c.back, c.lanes = p, max(overlap-1, 0), lockstepWidth
	}
	c.ms, c.idx = c.ms[:0], c.idx[:0]
	for _, i := range sel {
		if m := g.eager[i]; m != nil && (c.known || g.split[i]) {
			c.ms, c.idx = append(c.ms, m), append(c.idx, i)
		}
	}
	c.grouped = len(c.ms)
	if c.lanes > 1 {
		c.grouped -= len(c.ms) % lockstepWidth
	}
	return c
}

// walk runs the engines c took over text as begin planned.
//
//sfa:noalloc
func (g *Lockstep) walk(c *lockCtx, text []byte) {
	c.text = text
	if c.p == 1 {
		c.runChunk(0)
	} else {
		dispatchChunks(c, &c.job, g.pool, false, c.p)
	}
	c.text = nil
}

// localsOf returns the states of the j-th picked engine: its sub-chunk
// states, lanes apiece.
func (c *lockCtx) localsOf(j int) []int32 {
	n := c.p * c.lanes
	return c.locals[j*n : (j+1)*n]
}

// final returns the DFA state the j-th picked engine m reached from
// D.Start over the pass's whole text (a MatchMasks walk, which is known
// only as one chunk).
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
	c := g.begin(sel, len(text), false, unknownSplit)
	if len(c.idx) > 0 {
		start := time.Now()
		g.walk(c, text)
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

// OrMasks ORs into dsts[i] the accept bitmask of text for every i in
// sel: the candidate-window primitive, for a window every selected
// engine must verify, where no occurrence any of them must find is
// longer than overlap bytes. Every engine of sel must be eager, since
// there is no fallback: the final mask row of every piece the window was
// cut into is ORed in (begin). A lone engine's window under 4 KiB is one
// walk of D on the calling goroutine. It books nothing: the caller times
// and counts the block's windows.
//
//sfa:noalloc
func (g *Lockstep) OrMasks(sel []int, text []byte, overlap int, dsts [][]uint64) {
	if len(sel) == 1 && len(text) < streamSequentialMax {
		m := g.eager[sel[0]]
		orRow(dsts[sel[0]], m.row(m.runDFA(text)))
		return
	}
	c := g.begin(sel, len(text), false, overlap)
	g.walk(c, text)
	for j, i := range c.idx {
		step := 1
		if j < c.grouped {
			step = c.lanes // a grouped engine wrote lane 0 of each chunk
		}
		qs := c.localsOf(j)
		for x := 0; x < len(qs); x += step {
			orRow(dsts[i], g.eager[i].row(qs[x]))
		}
	}
	g.put(c)
}

// orRow ORs a mask row into dst.
func orRow(dst, row []uint64) {
	for w, bits := range row {
		dst[w] |= bits
	}
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
	c := g.begin(sel, len(chunk), true, unknownSplit)
	if len(c.idx) > 0 {
		start := time.Now()
		g.walk(c, chunk)
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
