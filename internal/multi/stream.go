package multi

import (
	"errors"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/prefilter"
)

// errDifferentSets rejects composing streams of different rule sets.
var errDifferentSets = errors.New("multi: cannot compose streams of different rule sets")

// SetStream is online matching over a combined rule set: the multi-
// pattern generalization of the single-pattern stream. Per shard it
// carries one |D|-sized mapping — the composition of every chunk's
// transformation under the associative ⊙ — so the state held between
// Writes is fixed-size regardless of how much input has been consumed,
// and Theorem 3 makes the verdict split-invariant: any chunking of the
// input yields exactly the one-shot Scan mask.
//
// Window-mode shards of a prefiltered set (see prefilter.go) use a
// different carried state: an accumulated accept mask plus the set of
// candidate windows still awaiting input, with a bounded tail buffer of
// recent bytes so windows (and literals) split across chunk boundaries
// are re-materialized exactly. A chunk with no literal hits and no
// pending window advances such a shard with *no* automaton work at all
// — the O(|D|) per-chunk mapping composition is skipped entirely, which
// is the streaming half of the prefilter's win. Verdicts stay
// byte-identical to the unfiltered stream for any chunking.
//
// A SetStream is not safe for concurrent use; Set.NewStream is cheap
// enough to give each goroutine (or each network request) its own. The
// per-Write hot path allocates nothing in steady state: the carried
// vectors, span lists, and tail buffers all live in the stream, and
// each shard's chunk scan reuses the engine's pooled match context.
type SetStream struct {
	set   *Set
	cur   [][]int16 // carried mapping per shard; nil unless the shard is in set.carry
	tmp   [][]int16 // ping-pong scratch, allocated like cur
	local []uint64  // shard-local mask scratch for Mask
	bytes int64

	// Window/prefix-shard streaming state; nil unless the set's
	// prefilter has window- or prefix-mode shards. Window shards keep
	// their accumulated mask and waiting windows in win (each Write is
	// one block of the driver in prefilter.go). Prefix shards carry no
	// state of their own: their verdict is recomputed at Mask time from
	// the head buffer (the first tailCap ≥ maxLen stream bytes), so each
	// Write advances them for free.
	win     winState // win.acc == nil: the set has no window or prefix shards
	head    []byte   // first ≤tailCap bytes of the stream (Compose junctions)
	tail    []byte   // last ≤tailCap bytes of the stream
	tailCap int

	// stat is the stream's own measurement row (plain fields — a
	// SetStream is single-goroutine by contract). It is what a slow-scan
	// trace reads per request, next to the tenant-wide obs aggregates.
	stat StreamStats
}

// StreamStats is one stream's consumption account: Writes and bytes
// consumed, wall time spent advancing the carried mappings, and — with
// a prefilter armed — how many per-shard chunk visits the literal
// cascade skipped vs scanned (the same semantics as the set-wide
// PrefilterStats, scoped to this stream).
type StreamStats struct {
	Chunks int64 `json:"chunks"`
	Bytes  int64 `json:"bytes"`
	// ComposeNs is the total wall time spent advancing the stream
	// (everything a Write does); PrefilterNs is the subset the window
	// shards took — the literal pass and candidate-window scans, or the
	// whole-block lock-step walk of a block that bypassed the matcher —
	// so ComposeNs−PrefilterNs is pure carried-mapping composition.
	ComposeNs          int64 `json:"compose_ns"`
	PrefilterNs        int64 `json:"prefilter_ns"`
	ShardChunksSkipped int64 `json:"shard_chunks_skipped"`
	ShardChunksScanned int64 `json:"shard_chunks_scanned"`
}

// Stats returns the stream's consumption counters so far.
func (st *SetStream) Stats() StreamStats { return st.stat }

// NewStream starts incremental matching from the empty input.
func (s *Set) NewStream() *SetStream {
	st := &SetStream{set: s}
	if len(s.carry) > 0 {
		st.cur = make([][]int16, len(s.shards))
		st.tmp = make([][]int16, len(s.shards))
	}
	for _, i := range s.carry {
		m := s.shards[i].m
		st.cur[i] = make([]int16, m.MappingLen())
		st.tmp[i] = make([]int16, m.MappingLen())
		m.InitMapping(st.cur[i])
	}
	maxWords := 0
	for _, sh := range s.shards {
		maxWords = max(maxWords, sh.m.Words())
	}
	st.local = make([]uint64, maxWords)
	if p := s.pre; p != nil && (p.maxSpan > 0 || p.maxPre > 0) {
		// tailCap bytes of history suffice for any window: a pending
		// span reaches back at most one span length (2×maxLen) plus a
		// straddling literal, and a Compose junction needs maxLen on
		// each side of the seam. Prefix shards need the head buffer to
		// hold their whole decisive prefix.
		st.tailCap = p.maxSpan + p.litMax
		if p.maxPre > st.tailCap {
			st.tailCap = p.maxPre
		}
		st.win.init(s)
		st.win.acc = make([][]uint64, len(s.shards))
		for _, i := range p.win {
			st.win.acc[i] = make([]uint64, maskWords(len(s.shards[i].rules)))
		}
		st.head = make([]byte, 0, st.tailCap)
		st.tail = make([]byte, 0, st.tailCap)
		st.win.wbuf = make([]byte, 0, 2*st.tailCap)
	}
	return st
}

// Set returns the rule set this stream matches against.
func (st *SetStream) Set() *Set { return st.set }

// Write consumes the next chunk of input: one block of the window
// shards' driver, then one lock-step walk of the chunk for every shard
// that carries a mapping (chunk-parallel on the engine pool) and one
// ⊙-fold per shard.
//
//sfa:noalloc
func (st *SetStream) Write(chunk []byte) {
	if len(chunk) == 0 {
		return
	}
	start := time.Now()
	if st.win.acc != nil {
		st.writeWindows(chunk)
		st.stat.PrefilterNs += time.Since(start).Nanoseconds()
	}
	st.set.lock.ComposeChunks(st.set.carry, st.cur, st.tmp, chunk)
	st.stat.ShardChunksScanned += int64(len(st.set.carry))
	if st.win.acc != nil {
		st.carry(chunk)
	}
	elapsed := time.Since(start).Nanoseconds()
	st.bytes += int64(len(chunk))
	st.stat.Chunks++
	st.stat.Bytes += int64(len(chunk))
	st.stat.ComposeNs += elapsed
	// The set-wide aggregate records here, one chunk per Write, so the
	// numbers stay meaningful even when the prefilter lets every shard
	// skip the chunk (the engines' ComposeChunk never runs then).
	if g := st.set.stats; g != nil {
		g.RecordChunk(len(chunk), elapsed)
	}
}

// writeWindows advances the window- and prefix-mode shards over chunk.
// Prefix shards only count it (Mask reads the head buffer); the window
// shards take it as one block of the driver, whose span coordinates are
// chunk-relative: negative positions reach into the tail buffer,
// positions past len(chunk) await future input.
//
//sfa:noalloc
func (st *SetStream) writeWindows(chunk []byte) {
	p := st.set.pre
	if n := int64(p.prefix); n > 0 {
		p.totalBytes.Add(n * int64(len(chunk)))
		p.chunksSkipped.Add(n) // no per-chunk work: Mask reads the head
		st.stat.ShardChunksSkipped += n
	}
	if len(p.win) == 0 {
		return // prefix-only: no window shards, no literal matcher needed
	}
	scanned, skipped := p.block(st.set, &st.win, nil, st.tail, chunk, 0, len(chunk), st.tailCap)
	st.stat.ShardChunksScanned += scanned
	st.stat.ShardChunksSkipped += skipped
}

// carry updates the head and tail buffers after a Write.
//
//sfa:noalloc
func (st *SetStream) carry(chunk []byte) {
	if len(st.head) < st.tailCap {
		n := st.tailCap - len(st.head)
		if n > len(chunk) {
			n = len(chunk)
		}
		st.head = append(st.head, chunk[:n]...)
	}
	switch {
	case len(chunk) >= st.tailCap:
		st.tail = append(st.tail[:0], chunk[len(chunk)-st.tailCap:]...)
	case len(st.tail)+len(chunk) > st.tailCap:
		keep := st.tailCap - len(chunk)
		copy(st.tail, st.tail[len(st.tail)-keep:])
		st.tail = append(st.tail[:keep], chunk...)
	default:
		st.tail = append(st.tail, chunk...)
	}
}

// Mask writes the global accept bitmask of the input consumed so far —
// bit r set iff rule r matches — into dst, which must have Words()
// capacity, and returns dst[:Words()]. It may be called at any point; the
// stream continues afterwards. Allocation-free with a caller buffer.
func (st *SetStream) Mask(dst []uint64) []uint64 {
	dst = dst[:st.set.words]
	for i := range dst {
		dst[i] = 0
	}
	c := st.set.ctxs.Get().(*scanCtx) // the set's scan scratch: the prefix shards' masks
	for i, sh := range st.set.shards {
		switch {
		case st.win.acc != nil && st.win.acc[i] != nil:
			sh.merge(dst, st.win.acc[i])
		case st.set.pre != nil && st.set.pre.shards[i].mode == prePrefix:
			// Begin-anchored shard: the verdict is decided by the first
			// maxLen stream bytes, all held in the head buffer (none
			// when maxLen is 0: the stream then keeps no head). It
			// carries no mapping.
			st.set.walkPrefix(i, st.head, c.win.acc)
			sh.merge(dst, c.win.acc[i])
		default:
			sh.merge(dst, sh.m.MatchMaskFrom(st.cur[i], st.local))
		}
	}
	st.set.ctxs.Put(c)
	st.set.recordHeat(dst)
	return dst
}

// Bytes returns the number of bytes consumed.
func (st *SetStream) Bytes() int64 { return st.bytes }

// Reset rewinds the stream to the empty input.
func (st *SetStream) Reset() {
	for _, i := range st.set.carry {
		st.set.shards[i].m.InitMapping(st.cur[i])
	}
	if st.win.acc != nil {
		for _, i := range st.set.pre.win {
			clear(st.win.acc[i])
		}
		st.win.reset(st.set.pre)
		st.head = st.head[:0]
		st.tail = st.tail[:0]
	}
	st.bytes = 0
	st.stat = StreamStats{}
}

// Compose merges another stream's consumed input *after* this one's, as
// if the two byte sequences had been concatenated: st ← st · t. Both
// streams must come from the same Set. This is what makes out-of-order
// segment processing work: scan segments independently (other machines,
// other goroutines), then fold the carried mappings with ⊙. t is read,
// never modified.
func (st *SetStream) Compose(t *SetStream) error {
	if t.set != st.set {
		return errDifferentSets
	}
	if st.win.acc != nil {
		st.composeWindows(t)
	}
	for _, i := range st.set.carry {
		st.set.shards[i].m.ComposeMask(st.tmp[i], st.cur[i], t.cur[i])
		st.cur[i], st.tmp[i] = st.tmp[i], st.cur[i]
	}
	if st.win.acc != nil {
		st.composeCarry(t)
	}
	st.bytes += t.bytes
	st.stat.Chunks += t.stat.Chunks
	st.stat.Bytes += t.stat.Bytes
	st.stat.ComposeNs += t.stat.ComposeNs
	st.stat.PrefilterNs += t.stat.PrefilterNs
	st.stat.ShardChunksSkipped += t.stat.ShardChunksSkipped
	st.stat.ShardChunksScanned += t.stat.ShardChunksScanned
	return nil
}

// composeWindows folds t's window-shard state into st's. The two
// streams found every occurrence inside their own segment; what remains
// are occurrences crossing the seam. Each such occurrence is at most
// maxLen long, so it lies entirely inside the junction buffer
// st.tail ++ t.head (each side holds min(segment, tailCap) ≥
// min(segment, maxLen) bytes) — one lock-step walk of the junction
// closes the verdicts of every window shard verified whole, one walk of
// each rule's DFA those of a shard verified per rule, skipping the rules
// either stream has settled. Windows still awaiting input after the new
// end come from st's pending (shifted), t's pending (already
// end-relative), and literals straddling the seam itself — none for a
// settled rule.
func (st *SetStream) composeWindows(t *SetStream) {
	p, w := st.set.pre, &st.win
	if len(p.win) == 0 {
		return // prefix-only: composeCarry's head merge is all that matters
	}
	jbuf := append(w.wbuf[:0], st.tail...)
	jbuf = append(jbuf, t.head...)
	boundary, shift := len(st.tail), int(t.bytes)
	// Literal hits straddling the seam, relative to the new end of stream.
	w.hits = w.hits[:0]
	if lm := p.litMax; lm > 1 && boundary > 0 && len(t.head) > 0 {
		lo := max(boundary-(lm-1), 0)
		w.hits = p.m.AppendHits(w.hits, jbuf[lo:min(boundary+lm-1, len(jbuf))])
		kept := w.hits[:0]
		for _, h := range w.hits {
			if pos := h.Pos + lo - boundary; pos < 0 && pos+len(p.m.Lits()[h.Lit]) > 0 {
				kept = append(kept, prefilter.Hit{Lit: h.Lit, Pos: pos - shift})
			}
		}
		w.hits = kept
	}
	for _, i := range p.win {
		for j, bits := range t.win.acc[i] {
			w.acc[i][j] |= bits
		}
	}
	// The shards verified whole that either side has not finished walk
	// the junction.
	live := slices.DeleteFunc(p.liveWin(st.set, w), func(i int) bool { return p.shards[i].rules != nil })
	if len(jbuf) > 0 && len(live) > 0 {
		p.candBytes.Add(int64(len(jbuf) * len(live)))
		st.set.lock.OrMasks(live, jbuf, p.maxSpan/2, w.acc)
		for _, i := range live {
			st.set.shards[i].m.Charge(engine.Cost{Bytes: int64(len(jbuf)), Windows: 1})
		}
	}
	// Rebuild pending relative to the new end of stream: whatever still
	// reaches past it. Per rule that is at most one window — every window
	// that reaches past the end contains it.
	for _, i := range p.win {
		w.newsp[i] = w.newsp[i][:0]
		for _, sp := range w.pending[i] {
			w.newsp[i] = append(w.newsp[i], span{sp.lo - shift, sp.hi - shift})
		}
		w.newsp[i] = append(w.newsp[i], t.win.pending[i]...)
		sh := &p.shards[i]
		if sh.rules == nil {
			continue
		}
		// A rule either side settled needs no junction walk and keeps no
		// window; nor does one the junction settles.
		var k int64
		for r := range w.open[i] {
			o := w.open[i][r]
			w.open[i][r] = span{}
			if w.settled(int32(i), int32(r)) {
				continue
			}
			if len(jbuf) > 0 {
				sh.rules.OrRule(r, jbuf, w.acc[i])
				k++
				if w.settled(int32(i), int32(r)) {
					continue
				}
			}
			w.joinOpen(i, r, span{o.lo - shift, o.hi - shift}, st.tailCap)
			w.joinOpen(i, r, t.win.open[i][r], st.tailCap)
		}
		if k > 0 {
			p.candBytes.Add(k * int64(len(jbuf)))
			sh.rules.Charge(engine.Cost{Bytes: k * int64(len(jbuf)), Windows: k})
		}
	}
	for _, h := range w.hits {
		for _, tg := range p.targets[h.Lit] {
			sp := span{h.Pos - int(tg.back), h.Pos + int(tg.fwd)}
			if tg.rule >= 0 {
				if !w.settled(tg.shard, tg.rule) {
					w.joinOpen(int(tg.shard), int(tg.rule), sp, st.tailCap)
				}
			} else if tg.fwd >= 0 {
				w.newsp[tg.shard] = append(w.newsp[tg.shard], sp)
			}
		}
	}
	for _, i := range live {
		w.pending[i] = w.pending[i][:0]
		for _, sp := range mergeSpans(w.newsp[i], -st.tailCap, st.tailCap) {
			if sp.hi > 0 {
				w.pending[i] = append(w.pending[i], sp)
			}
		}
	}
}

// joinOpen widens rule r's open window by sp, clipped to reach on both
// sides of the end of the stream, if sp reaches past that end at all.
func (w *winState) joinOpen(i, r int, sp span, reach int) {
	if sp.hi <= 0 {
		return
	}
	sp = span{max(sp.lo, -reach), min(sp.hi, reach)}
	if o := &w.open[i][r]; o.lo == o.hi {
		*o = sp
	} else {
		o.lo, o.hi = min(o.lo, sp.lo), max(o.hi, sp.hi)
	}
}

// composeCarry merges the head/tail history buffers: head stays the
// first tailCap bytes of the concatenation, tail the last.
func (st *SetStream) composeCarry(t *SetStream) {
	if len(st.head) < st.tailCap {
		n := st.tailCap - len(st.head)
		if n > len(t.head) {
			n = len(t.head)
		}
		st.head = append(st.head, t.head[:n]...)
	}
	if int(t.bytes) >= st.tailCap || len(t.tail) >= st.tailCap {
		st.tail = append(st.tail[:0], t.tail...)
		return
	}
	// t is short: t.tail is all of t; keep what fits of st.tail first.
	if keep := st.tailCap - len(t.tail); len(st.tail) > keep {
		copy(st.tail, st.tail[len(st.tail)-keep:])
		st.tail = st.tail[:keep]
	}
	st.tail = append(st.tail, t.tail...)
}
