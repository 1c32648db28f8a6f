package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Streaming entry points — the incremental protocol behind sfa.Stream and
// sfa.RuleStream.
//
// The SFA algebra makes online matching a first-class operation: a chunk
// scanned from the identity yields a transformation of the DFA's state
// set, and Lemma 1's associative ⊙ folds it into a carried mapping of
// fixed size |D| no matter how much input has gone before. The carried
// mapping IS the stream state; extracting a verdict is one vector index
// (the DFA state the whole prefix reaches) plus a bitmask-row read.
//
// ComposeChunk is the per-chunk hot path. It reuses the engine's pooled
// match context — the chunk is split across the engine's p threads, each
// runs on the persistent worker pool exactly as a one-shot Match would —
// and folds the p chunk mappings into the caller's carried mapping with
// ComposeVec. The caller owns the two ping-pong vectors, so a
// steady-state ComposeChunk performs no heap allocation.

// streamSequentialMax is the chunk size below which ComposeChunk runs the
// chunk on the calling goroutine: splitting a small write across threads
// costs more in submission and reduction than the scan itself.
const streamSequentialMax = 4096

// buildSeq issues process-unique engine build ids (see BuildID).
var buildSeq atomic.Uint64

// composeLocals folds p chunk-final SFA states into the carried mapping:
// cur ← cur ⊙ f₁ ⊙ … ⊙ fp, ping-ponging between cur and tmp. Returns the
// slices in (current, scratch) order.
//
//sfa:noalloc
//sfa:borrowed locals
func composeLocals(s *core.DSFA, cur, tmp []int16, locals []int32) ([]int16, []int16) {
	for _, f := range locals {
		core.ComposeVec(tmp, cur, s.Map(f))
		cur, tmp = tmp, cur
	}
	return cur, tmp
}

// dispatchChunks fans a context's p chunks out and returns when all have
// completed: on the persistent pool by default, on fresh goroutines in
// spawn mode (thread creation as part of the call, the paper's Fig. 10
// measurement). Shared by Match and ComposeChunk on every parallel
// engine so the dispatch protocol cannot drift between them.
//
// The raw go statements below exist only for the deliberate spawn-mode
// experiment; pooled dispatch is the default.
//
//sfa:spawner
func dispatchChunks(t chunkTask, j *jobState, pool *Pool, spawn bool, p int) {
	if spawn {
		var wg sync.WaitGroup
		for i := 0; i < p; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				t.runChunk(i)
			}(i)
		}
		wg.Wait()
		return
	}
	pool.Run(t, j, p)
}

// BuildID returns the engine's process-unique construction id. Hot-reload
// keeps shards whose rule membership is unchanged; the id is how callers
// (and the serve tests) observe that an automaton really was carried over
// rather than rebuilt.
func (m *MultiSFA) BuildID() uint64 { return m.id }

// MappingLen returns the length of a carried mapping vector: the number
// of states of the underlying DFA.
func (m *MultiSFA) MappingLen() int { return m.s.D.NumStates }

// InitMapping writes the identity mapping (the empty input's
// transformation) into cur, which must have MappingLen() length.
func (m *MultiSFA) InitMapping(cur []int16) {
	copy(cur, m.s.Map(m.s.Start))
}

// ComposeChunk advances a carried mapping by one chunk of input: the
// chunk is scanned from the identity — in parallel across the engine's
// threads on the worker pool when it is large enough to pay for the fork
// — and the resulting transformation is folded into cur with ⊙. cur and
// tmp are the caller's ping-pong pair (both MappingLen() long); the
// updated pair is returned in (current, scratch) order. Zero heap
// allocations in steady state.
//
//sfa:noalloc
func (m *MultiSFA) ComposeChunk(cur, tmp []int16, chunk []byte) ([]int16, []int16) {
	if len(chunk) == 0 {
		return cur, tmp
	}
	p := m.threads
	if p < 2 || len(chunk) < streamSequentialMax {
		f := m.runChunk(chunk)
		core.ComposeVec(tmp, cur, m.s.Map(f))
		cur, tmp = tmp, cur
	} else {
		c := m.ctxs.Get().(*multiCtx)
		c.text = chunk
		dispatchChunks(c, &c.job, m.pool, m.spawn, p)
		cur, tmp = composeLocals(m.s, cur, tmp, c.locals)
		c.text = nil
		m.ctxs.Put(c)
	}
	// Chunk latency/size aggregates and the cost account are the caller's
	// job (multi's SetStream records once per Write); the engine records
	// what it alone can see — the boundary-state frequency table (opt-in).
	if m.boundary != nil {
		m.boundary.Record(int32(cur[m.s.D.Start]))
	}
	return cur, tmp
}

// AcceptedFrom reports whether any rule accepts the input a carried
// mapping summarizes: cur[D.Start] is the DFA state the whole prefix
// reaches.
//
//sfa:borrowed cur
func (m *MultiSFA) AcceptedFrom(cur []int16) bool {
	return m.s.D.Accept[cur[m.s.D.Start]]
}

// MatchMaskFrom writes the accept bitmask of a carried mapping — bit r
// set iff rule r accepts the input the mapping summarizes — into dst,
// which must have Words() capacity. It returns dst[:Words()]. Like
// MatchMask, it allocates nothing with a caller-provided buffer.
//
//sfa:noalloc
//sfa:borrowed cur
func (m *MultiSFA) MatchMaskFrom(cur []int16, dst []uint64) []uint64 {
	return append(dst[:0], m.row(int32(cur[m.s.D.Start]))...)
}

// ComposeMask merges two carried mappings of this engine as if their
// inputs had been concatenated: h ← "f then g" (the ⊙ of Lemma 1). h must
// not alias f or g. This is what lets out-of-order stream segments be
// scanned independently and folded afterwards (RuleStream.Compose).
//
//sfa:borrowed f g
func (m *MultiSFA) ComposeMask(h, f, g []int16) {
	core.ComposeVec(h, f, g)
}
