package engine

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dfa"
)

// DFASpeculative is the prior-work baseline, Algorithm 3: the input is
// split across p threads and every thread simulates the transitions of
// *all* DFA states over its chunk, producing a mapping T_i: Q → Q. The
// per-byte cost is therefore Θ(|D|), which is exactly the overhead SFA
// construction moves to compile time; Figs. 6–8 are the comparison.
//
// Like MultiSFA it defaults to the persistent worker pool with pooled
// per-match scratch (the p chunk mappings and the reduction buffers);
// WithSpawn restores per-call goroutine creation.
type DFASpeculative struct {
	d       *dfa.DFA
	threads int
	red     Reduction
	layout  TableLayout
	tab     tables
	spawn   bool
	pool    *Pool
	ctxs    sync.Pool // of *specCtx
}

// NewDFASpeculative compiles the matcher for a fixed thread count and
// reduction strategy.
func NewDFASpeculative(d *dfa.DFA, threads int, red Reduction, opts ...Option) *DFASpeculative {
	if threads < 1 {
		threads = 1
	}
	o := buildOpts(opts)
	m := &DFASpeculative{
		d:       d,
		threads: threads,
		red:     red,
		layout:  resolveLayout(o.layout, d.NumStates),
		spawn:   o.spawn,
		pool:    o.pool,
	}
	switch m.layout {
	case LayoutU8:
		m.tab.u8 = core.DFATable256[uint8](d)
	case LayoutU16:
		m.tab.u16 = core.DFATable256[uint16](d)
	case LayoutI32:
		m.tab.i32 = core.DFATable256[int32](d)
	}
	m.ctxs.New = func() any {
		return &specCtx{m: m, maps: make([]int32, m.threads*d.NumStates)}
	}
	return m
}

// specCtx is the per-Match scratch: the p chunk mappings (flat, p × |D|)
// and the reduction arena.
type specCtx struct {
	job  jobState
	m    *DFASpeculative
	text []byte
	maps []int32
	ar   reduceArena32
}

func (c *specCtx) runChunk(i int) {
	n := c.m.d.NumStates
	lo, hi := span(len(c.text), c.m.threads, i)
	c.m.simulateChunkInto(c.maps[i*n:(i+1)*n], c.text[lo:hi])
}

// Match implements Algorithm 3.
func (m *DFASpeculative) Match(text []byte) bool {
	p := m.threads
	c := m.ctxs.Get().(*specCtx)
	c.text = text
	dispatchChunks(c, &c.job, m.pool, m.spawn, p)
	ok := m.reduce(c)
	c.text = nil
	m.ctxs.Put(c)
	return ok
}

func (m *DFASpeculative) reduce(c *specCtx) bool {
	n := m.d.NumStates
	var final int32
	switch m.red {
	case ReduceSequential:
		// Lines 9–11 (right column): thread the single start state
		// through the p mappings.
		q := m.d.Start
		for i := 0; i < m.threads; i++ {
			q = c.maps[i*n+int(q)]
		}
		final = q
	default:
		// Line 9 (left column): associative fold T1 ⊙ T2 ⊙ … ⊙ Tp.
		vecs := c.ar.vecs(m.threads)
		for i := range vecs {
			vecs[i] = c.maps[i*n : (i+1)*n]
		}
		t := treeReduce32(vecs, n, &c.ar)
		final = t[m.d.Start]
	}
	return m.d.Accept[final]
}

// simulateChunkInto computes T[q] = destination of q over the chunk, for
// all q (lines 2–7 of Algorithm 3), through the resolved table layout.
func (m *DFASpeculative) simulateChunkInto(t []int32, chunk []byte) {
	n := m.d.NumStates
	for q := range t {
		t[q] = int32(q)
	}
	switch m.layout {
	case LayoutU8:
		tab := m.tab.u8
		for _, b := range chunk {
			base := uint32(b)
			for q := 0; q < n; q++ {
				t[q] = int32(tab[uint32(t[q])<<8|base])
			}
		}
	case LayoutU16:
		tab := m.tab.u16
		for _, b := range chunk {
			base := uint32(b)
			for q := 0; q < n; q++ {
				t[q] = int32(tab[uint32(t[q])<<8|base])
			}
		}
	case LayoutClass:
		d := m.d
		for _, b := range chunk {
			for q := 0; q < n; q++ {
				t[q] = d.NextByte(t[q], b)
			}
		}
	default:
		tab := m.tab.i32
		for _, b := range chunk {
			base := int(b)
			for q := 0; q < n; q++ {
				t[q] = tab[int(t[q])<<8|base]
			}
		}
	}
}

// simulateChunk is simulateChunkInto with a fresh mapping (tests and the
// paper-semantics invariants use it).
func (m *DFASpeculative) simulateChunk(chunk []byte) []int32 {
	t := make([]int32, m.d.NumStates)
	m.simulateChunkInto(t, chunk)
	return t
}

// Name implements Matcher.
func (m *DFASpeculative) Name() string {
	mode := ""
	if m.spawn {
		mode = "-spawn"
	}
	return fmt.Sprintf("dfa-spec-p%d-%s-%s%s", m.threads, m.red, m.layout, mode)
}
