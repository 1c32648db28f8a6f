package multi

import (
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/prefilter"
)

// Literal prefiltering for combined-set scans. armPrefilter classifies
// every shard by what its rules' extractions allow:
//
//	window — every rule is windowable (covered, unanchored, bounded
//	         match length): the shard's automaton runs only over merged
//	         candidate windows around literal hits;
//	prefix — every rule is begin-anchored with a bounded occurrence:
//	         the shard scans only the first maxLen input bytes (the
//	         trailing .* bracket makes the verdict monotone in prefix
//	         length). Needs no literals at all;
//	gate   — every rule is covered but at least one is neither
//	         windowable nor prefix-bounded (unbounded or end-anchored):
//	         the shard is skipped outright when none of its literals
//	         occur, else scanned in full;
//	full   — some rule has no extractable literal and no prefix bound:
//	         always scanned in full, exactly as without the prefilter.
//
// Soundness rests on the extraction contract (a rule's match always
// contains one of its literals) and the window contract: every match
// holds an occurrence that lies inside the window [p−back, p+fwd) of a
// hit at p of one of the rule's literals. back and fwd are the rule's
// extents for that literal (prefilter.Rule.Extent): MaxLen's window
// [p+l−MaxLen, p+MaxLen] for a length-l literal, narrowed to where the
// literal sits in the rule — nothing before a literal that heads its
// rule can matter, so its back is 0. A shard verified whole takes, per
// literal, the widest extents of its rules. Completeness of window and
// prefix modes additionally needs search-bracketed automata, whose
// verdicts are monotone under extension — which is why whole-input sets
// only ever gate.
//
// Window shards consume their input block by block (setPre.block): a
// one-shot scan cuts the input into scanBlock pieces, a stream takes
// each Write as one block. Every block goes through one of two arms.
// The cascade arm is the description above: literal matcher, merged
// windows, one walk per window per shard. The whole arm skips the
// matcher and hands every window shard the same single window — the
// block widened by the longest occurrence on both sides. That window
// is a superset of any window the cascade could have produced for the
// block, and a window shard's contract never depended on *which*
// literal opened a window, only on every occurrence lying inside some
// window it walks, so soundness and completeness are inherited from
// the window contract unchanged: a larger window can only find
// occurrences that are really in the input (the automata are
// search-bracketed) and cannot miss one a smaller window would have
// found. What the whole arm buys is that all window shards see the
// same bytes, so engine.Lockstep walks them in one pass for about the
// price of one shard — cheaper than the matcher alone on text where
// literal prefixes are everywhere. The arm is chosen per block from
// the measured cost of each (armCosts).
//
// A window shard whose engine is lazy is verified per rule, which is the
// window contract instantiated for one rule at a time (k = 1). An
// occurrence of rule r contains one of r's own literals, at some position
// p, and lies inside that literal's window under r's own extents; r's DFA
// is search-bracketed, so it accepts any window that contains the occurrence
// and accepts no window unless an occurrence of r is really in it. So the
// literal that opens a window already names the rule the window can
// witness, and the window always starts at the automaton's start state:
// nothing about it needs the combined automaton, whose tuple states exist
// to carry *every* rule from an *unknown* state. armPrefilter therefore
// records such a shard's literals against (shard, rule) with the rule's
// own extents, the cascade arm keeps one open window per rule — hits
// extend it or close it (ruleWindow) — and each closed window is one walk
// of that rule's own DFA from its start state (engine.LazyMultiSFA.OrRule):
// a table of a few KB instead of tuple rows in the megabytes, with no
// lock, no budget traffic and nothing to materialize, so a set whose lazy
// shards are all windowed never builds a combined automaton at all. The
// whole arm is never taken by a set with such a shard (lazyWin): one
// window for every rule is exactly the walk the lazy tuple exists for,
// and what a window shard exists to avoid.
//
// Settled rules take no windows. Under search semantics a rule's verdict
// bit, once set in a scan's or stream's accumulated mask, stays set until
// Reset, so no later window of that rule can change a verdict: in a shard
// verified per rule, addSpans drops the hits of a rule whose bit is set,
// closeRules drops its open window unwalked, and Compose neither walks
// its junction nor keeps its windows once either side has it. The
// matcher still sweeps every byte — gate shards need its hits — and a
// shard verified whole keeps walking its windows: its blocks would
// otherwise time as nearly free and mislead the arm choice. Settled bits
// live in the scan context or stream, so nothing crosses scans, the
// contexts of a block-parallel Scan, or a Reset.

type shardMode uint8

const (
	preFull shardMode = iota
	preGate
	preWindow
	prePrefix
)

// span is a half-open candidate byte range [lo, hi), relative to the
// first byte of the buffer a block lives in. In streams that is the
// current chunk, so lo may be negative (reaching into the carried tail
// buffer) and hi may exceed the chunk (a window still waiting for
// input).
type span struct{ lo, hi int }

// litTarget maps one literal to one shard it can witness a rule of — or,
// in a shard verified per rule, to that one rule. fwd < 0 marks a
// gate-only target (the shard never windows).
type litTarget struct {
	shard int32
	rule  int32 // shard-local rule the window is verified for; −1: the whole shard
	back  int32 // window lo = pos − back  (prefilter.Rule.Extent)
	fwd   int32 // window hi = pos + fwd
}

type shardPre struct {
	mode   shardMode
	maxLen int // window/prefix mode: max MaxLen over the shard's rules
	// rules is the engine of a window shard verified per rule (a lazy
	// one), nil for every other shard; ruleMax is then MaxLen by
	// shard-local rule.
	rules   *engine.LazyMultiSFA
	ruleMax []int
}

// setPre is a Set's armed prefilter: the global literal matcher, the
// hit → shard-window mapping, and the observability counters.
type setPre struct {
	m       *prefilter.Matcher
	targets [][]litTarget // by global literal id
	shards  []shardPre
	win     []int // window-mode shard indices
	// eagerWin is the part of win verified a shard at a time — all of it
	// but the lazy shards, which are verified per rule (shardPre.rules).
	eagerWin []int
	gates    []int // gate-mode shard indices
	prefix   int   // number of prefix-mode shards
	litMax   int   // longest literal (stream boundary-carry width)
	maxSpan  int   // max window-shard span length, 2×maxLen (stream buffers)
	maxPre   int   // max prefix-shard scan length (stream head sizing)
	// lazyWin: some window shard is lazy, verified per rule. The whole arm
	// would walk its combined automaton over every block (and materialize
	// states no window reaches); such sets keep every block on the cascade
	// arm.
	lazyWin bool

	covered   int // rules the cascade accelerates (literal-covered or prefix-bounded)
	uncovered int // rules scanned in full wherever they land

	arms armCosts
	// forceArm, when set (Set.ForceArm, tests only), replaces the
	// measured arm choice: block sequence number → take the whole arm.
	forceArm func(block int64) bool
	blockSeq atomic.Int64

	shardsSkipped atomic.Int64 // shard scans skipped outright
	candBytes     atomic.Int64 // bytes walked by prefiltered shards
	totalBytes    atomic.Int64 // bytes those shards would walk unfiltered
	chunksSkipped atomic.Int64 // window-shard blocks with no candidate work
	chunksScanned atomic.Int64 // window-shard blocks with candidate windows
	bypassBlocks  atomic.Int64 // blocks that took the whole arm
	bypassBytes   atomic.Int64 // bytes of those blocks
}

// armPrefilter attaches a prefilter built from per-rule extractions
// (index-aligned with the set's rules). A nil or length-mismatched
// infos leaves the set unfiltered — extraction failure is a
// degradation, never an error.
func (s *Set) armPrefilter(infos []prefilter.Rule) {
	if len(infos) != s.rules {
		return
	}
	pre := &setPre{shards: make([]shardPre, len(s.shards))}
	s.carry = s.carry[:0] // window and prefix shards leave the carried-mapping protocol
	for _, inf := range infos {
		if inf.Covered() || inf.Prefix {
			pre.covered++
		} else {
			pre.uncovered++
		}
	}
	litID := make(map[string]int)
	var lits []string
	for si, sh := range s.shards {
		window, prefix, gate := true, true, true
		maxLen := 0
		for _, ri := range sh.rules {
			inf := infos[ri]
			if !inf.Window {
				window = false
			}
			if !inf.Prefix {
				prefix = false
			}
			if !inf.Covered() {
				gate = false
			}
			if inf.MaxLen > maxLen {
				maxLen = inf.MaxLen
			}
		}
		sp := &pre.shards[si]
		switch {
		case window && len(sh.rules) > 0:
			sp.mode = preWindow
			sp.maxLen = maxLen
			pre.win = append(pre.win, si)
			if lz, ok := sh.m.(*engine.LazyMultiSFA); ok {
				pre.lazyWin = true
				sp.rules = lz
				sp.ruleMax = make([]int, len(sh.rules))
				for k, ri := range sh.rules {
					sp.ruleMax[k] = infos[ri].MaxLen
				}
			} else {
				pre.eagerWin = append(pre.eagerWin, si)
			}
			if 2*maxLen > pre.maxSpan {
				pre.maxSpan = 2 * maxLen
			}
		case prefix && len(sh.rules) > 0:
			// Prefix shards never consult the literal matcher: the
			// bounded head scan is cheaper than any gating.
			sp.mode = prePrefix
			sp.maxLen = maxLen
			pre.prefix++
			if maxLen > pre.maxPre {
				pre.maxPre = maxLen
			}
			continue
		case gate:
			sp.mode = preGate
			pre.gates = append(pre.gates, si)
			s.carry = append(s.carry, si)
		default:
			s.carry = append(s.carry, si)
			continue // preFull, the zero value
		}
		for k, ri := range sh.rules {
			rule := -1
			if sp.rules != nil {
				rule = k
			}
			for _, l := range infos[ri].Lits {
				id, ok := litID[l]
				if !ok {
					id = len(lits)
					litID[l] = id
					lits = append(lits, l)
					pre.targets = append(pre.targets, nil)
				}
				back, fwd := infos[ri].Extent(l)
				pre.addTarget(id, si, rule, sp.mode, back, fwd)
			}
		}
	}
	if len(lits) == 0 {
		// No shard needs the literal matcher (all full, or prefix-only);
		// keep the stats and the prefix modes, skip the cascade.
		s.pre = pre
		return
	}
	pre.m = prefilter.NewMatcher(lits)
	pre.litMax = pre.m.MaxLen()
	s.pre = pre
}

// addTarget records that literal id witnesses some rule of shard si —
// rule ≥ 0: that shard-local rule, in a shard verified per rule — whose
// window around a hit is [pos−back, pos+fwd) (the rule's Extent for the
// literal), widening the extents if a target for the pair already exists.
func (p *setPre) addTarget(id, si, rule int, mode shardMode, back, fwd int) {
	if mode != preWindow {
		back, fwd = -1, -1
	}
	for i := range p.targets[id] {
		t := &p.targets[id][i]
		if int(t.shard) != si || int(t.rule) != rule {
			continue
		}
		t.back, t.fwd = max(t.back, int32(back)), max(t.fwd, int32(fwd))
		return
	}
	p.targets[id] = append(p.targets[id], litTarget{shard: int32(si), rule: int32(rule), back: int32(back), fwd: int32(fwd)})
}

// active reports whether scans actually consult a matcher.
func (p *setPre) active() bool { return p != nil && p.m != nil }

// armCosts is what the per-block arm choice runs on: the smoothed
// measured cost of each arm in ns per KiB, and the schedule on which the
// losing arm is sampled again. It lives on the setPre, shared by every
// scan and stream of the set, so a new stream starts in the arm the
// rule set's traffic last favoured. Updates are racy read-modify-writes
// of independent atomics on purpose: the values steer a heuristic, and
// either arm is always correct.
type armCosts struct {
	cost     [2]atomic.Int64 // [0] cascade, [1] whole; 0 = not measured yet
	probeIn  atomic.Int64    // winning-arm bytes left before the loser runs one block
	probeGap atomic.Int64    // bytes between such samples; doubles while the loser keeps losing
}

const (
	// scanBlock is the block size one-shot scans cut their input into.
	// A set with p > 1 threads cuts each block's lock-step walk into p
	// sub-chunks on the pool, and a sub-chunk has to be worth waking a
	// worker for (measured at p = 2: 64 KiB per thread scans 1.1× faster
	// than p = 1, 256 KiB 1.6×), so its blocks are p × scanBlockPerThread.
	scanBlock          = 64 << 10
	scanBlockPerThread = 256 << 10
	// armMinBytes: smaller blocks follow the set's current arm but
	// neither measure nor sample — two clock reads would be a visible
	// share of their cost, and their timing says little about per-byte
	// cost.
	armMinBytes = 4 << 10
	// The losing arm is sampled after probeGapMin bytes, then at
	// doubling distances up to probeGapMax: on stationary input the
	// samples are a vanishing share of the bytes (one 64 KiB block per
	// 64 MiB, 0.1 %, at the cap), and a change in the traffic that makes
	// the loser cheaper is seen after at most probeGapMax bytes.
	probeGapMin = 1 << 20
	probeGapMax = 64 << 20
)

// wholeWins reports whether both arms are measured and the whole arm is
// the cheaper.
func (a *armCosts) wholeWins() bool {
	cascade, whole := a.cost[0].Load(), a.cost[1].Load()
	return cascade != 0 && whole != 0 && whole < cascade
}

// pick chooses the arm for a block of n bytes: the cheaper arm by
// measurement, each arm once while it has no measurement, and the loser
// on the sampling schedule. gate is the one-shot scan's gate flags (nil
// in streams, which walk gate shards regardless): while a gate shard is
// still closed the matcher is buying a whole-shard skip, so the block
// stays on the cascade.
func (p *setPre) pick(n int, gate []bool) bool {
	if p.lazyWin {
		return false
	}
	if p.forceArm != nil {
		return p.forceArm(p.blockSeq.Add(1) - 1)
	}
	if len(p.win) == 0 {
		return false
	}
	if gate != nil {
		for _, g := range p.gates {
			if !gate[g] {
				return false
			}
		}
	}
	a := &p.arms
	win := a.wholeWins()
	if n < armMinBytes {
		// The whole arm walks the block plus a junction and a pending
		// window, maxSpan bytes in all: not worth it for less input.
		return win && n >= p.maxSpan
	}
	if cascade := a.cost[0].Load(); cascade == 0 || a.cost[1].Load() == 0 {
		return cascade != 0
	}
	if a.probeIn.Add(-int64(n)) > 0 {
		return win
	}
	gap := min(max(2*a.probeGap.Load(), probeGapMin), probeGapMax)
	a.probeGap.Store(gap)
	a.probeIn.Store(gap)
	return !win
}

// record folds one timed block into its arm's cost. Timing noise is
// one-sided — a descheduled block only ever looks slower — so the
// estimate follows a cheaper sample quickly and a dearer one slowly.
// Sampling of the loser restarts at the short distance when the cheaper
// arm changes, and when a sample of the loser comes in well under its
// estimate and within half again of the winner: the traffic is moving
// its way, and the next sample should not wait out a long gap.
func (a *armCosts) record(whole bool, n int, ns int64) {
	cost := max(ns<<10/int64(n), 1)
	was, closing := a.wholeWins(), false
	c, other := &a.cost[0], &a.cost[1]
	if whole {
		c, other = other, c
	}
	if old := c.Load(); old != 0 {
		if cost < old {
			closing = cost < old-old/8
			cost = old + (cost-old)/2
		} else {
			cost = old + (cost-old)/16
		}
	}
	c.Store(cost)
	closing = closing && 2*cost < 3*other.Load()
	if now := a.wholeWins(); now != was || (closing && now != whole) {
		a.probeGap.Store(probeGapMin)
		a.probeIn.Store(probeGapMin)
	}
}

// winState is the window shards' state across the blocks of one scan
// or stream: the OR-accumulated verdicts, the windows still waiting for
// input, and per-block scratch. All per-shard slices are indexed by
// shard; only window shards' entries are used.
type winState struct {
	acc     [][]uint64 // accumulated shard-local masks
	pending [][]span   // windows outliving the consumed input, relative to the next block's buffer
	newsp   [][]span   // the block's candidate spans
	// open is the per-rule form of newsp and pending together, for the
	// shards verified per rule: open[i][r] is rule r's one open window
	// (lo == hi: none) — within a block the window later hits may still
	// extend, between blocks the window that awaits input.
	open    [][]span
	walked  []int64 // bytes each shard walked in the block
	windows []int64 // windows each shard verified in the block
	hits    []prefilter.Hit
	wbuf    []byte // junction materialization (streams)
}

// init sizes the per-shard scratch for s; the caller allocates acc.
func (w *winState) init(s *Set) {
	shards := len(s.shards)
	spans := make([][]span, 3*shards)
	w.pending, w.newsp, w.open = spans[:shards:shards], spans[shards:2*shards:2*shards], spans[2*shards:]
	counts := make([]int64, 2*shards)
	w.walked, w.windows = counts[:shards:shards], counts[shards:]
	if s.pre == nil {
		return
	}
	for _, i := range s.pre.win {
		if s.pre.shards[i].rules != nil {
			w.open[i] = make([]span, len(s.shards[i].rules))
		}
	}
}

// reset forgets every window that awaits input.
func (w *winState) reset(p *setPre) {
	for _, i := range p.win {
		w.pending[i] = w.pending[i][:0]
		clear(w.open[i])
	}
}

// settled reports whether rule r of shard i, verified per rule, has
// matched already. In search mode its verdict bit is sticky until Reset,
// so no window of r can change a verdict any more.
//
//sfa:noalloc
func (w *winState) settled(i, r int32) bool {
	return w.acc[i][r>>6]&(1<<(r&63)) != 0
}

// addSpans turns the block's literal hits (w.hits, buffer-relative) into
// candidate windows of the window shards they can witness: a hit at pos
// opens [pos−back, pos+fwd) on each target — appended to the shard's
// spans, or handed to the target's rule (ruleWindow) unless that rule has
// settled.
//
//sfa:noalloc
func (p *setPre) addSpans(w *winState, tail, cur []byte, ahead int) {
	for _, h := range w.hits {
		for _, t := range p.targets[h.Lit] {
			switch {
			case t.rule >= 0:
				if w.settled(t.shard, t.rule) {
					continue
				}
				p.ruleWindow(w, tail, cur, t, span{h.Pos - int(t.back), min(h.Pos+int(t.fwd), len(cur)+ahead)})
			case t.fwd >= 0:
				w.newsp[t.shard] = append(w.newsp[t.shard], span{h.Pos - int(t.back), h.Pos + int(t.fwd)})
			}
		}
	}
}

// ruleWindow merges candidate window sp of rule t.rule into the rule's
// open window, in arrival order: a window that touches the open one
// extends it; one that begins past it closes it — the open window is
// verified and sp becomes the open one; one that lies wholly before it
// (the matcher orders hits per literal only) is verified on its own.
// Whatever the order, every candidate window ends up inside a verified
// one, which is all the window contract asks. Only a window that reaches
// the end of the input can await more of it, and any later window begins
// before that end and so touches it: a window verified here is complete.
//
//sfa:noalloc
func (p *setPre) ruleWindow(w *winState, tail, cur []byte, t litTarget, sp span) {
	o := &w.open[t.shard][t.rule]
	switch {
	case o.lo == o.hi:
		*o = sp
	case sp.lo <= o.hi && sp.hi >= o.lo:
		o.lo, o.hi = min(o.lo, sp.lo), max(o.hi, sp.hi)
	case sp.lo > o.hi:
		p.verify(w, tail, cur, int(t.shard), int(t.rule), *o)
		*o = sp
	default:
		p.verify(w, tail, cur, int(t.shard), int(t.rule), sp)
	}
}

// verify walks the part of rule r's window sp that is here — from the
// start of the tail to the end of cur — on the rule's own DFA, ORing the
// verdict into w.acc[i].
//
//sfa:noalloc
func (p *setPre) verify(w *winState, tail, cur []byte, i, r int, sp span) {
	lo, hi := max(sp.lo, -len(tail)), min(sp.hi, len(cur))
	if hi <= lo {
		return
	}
	sh := &p.shards[i]
	a, b := w.window(tail, cur, lo, hi, sh.ruleMax[r])
	sh.rules.OrRule(r, a, w.acc[i])
	if len(b) > 0 {
		sh.rules.OrRule(r, b, w.acc[i])
	}
	w.walked[i] += int64(len(a) + len(b))
	w.windows[i]++
}

// closeRules ends the block for shard i, verified per rule: every window
// still open is verified as far as the input goes — occurrences completed
// inside it must show in Mask now — and one that awaits input stays open
// for the next block, relative to its buffer. Only an occurrence that
// ends past len(cur) is still owed, and it begins less than the rule's
// MaxLen before that. A rule that settled — earlier in the block, or by
// this verification — keeps no window, and one settled before it is not
// walked.
//
//sfa:noalloc
func (p *setPre) closeRules(w *winState, tail, cur []byte, i int) {
	sh := &p.shards[i]
	for r := range w.open[i] {
		o := &w.open[i][r]
		if o.lo == o.hi {
			continue
		}
		if !w.settled(int32(i), int32(r)) {
			p.verify(w, tail, cur, i, r, *o)
		}
		if o.hi > len(cur) && !w.settled(int32(i), int32(r)) {
			*o = span{max(o.lo-len(cur), -sh.ruleMax[r]), o.hi - len(cur)}
		} else {
			*o = span{}
		}
	}
}

// block advances the window shards over one block, cur[blo:bhi], of a
// one-shot scan (cur is the whole input, tail is nil, gate the scan's
// gate flags) or of a stream (cur is the chunk, blo:bhi all of it, tail
// the carried history before cur[0], gate nil). Windows may reach
// outside the block into whatever of tail and cur exists; ahead is how
// far past len(cur) a window may wait for input — 0 in a one-shot scan,
// where the part walked now is all there will ever be, the stream's
// tail capacity otherwise — and the waiting remainder is left in
// w.pending (w.open for shards verified per rule). Each window shard's
// cost account is charged the windows and bytes it walked and, for a
// timed block, its share of the walk time. It returns how many window
// shards had candidate work and how many had none.
//
//sfa:noalloc
func (p *setPre) block(s *Set, w *winState, gate []bool, tail, cur []byte, blo, bhi, ahead int) (scanned, skipped int64) {
	n := bhi - blo
	whole := p.pick(n, gate)
	timed := n >= armMinBytes && len(p.win) > 0
	var t0, walk0 time.Time
	if timed {
		t0 = time.Now()
		walk0 = t0
	}
	for _, i := range p.win {
		w.newsp[i] = w.newsp[i][:0]
		w.walked[i], w.windows[i] = 0, 0
	}
	if whole {
		// One window for every shard: the block, widened by the longest
		// occurrence any window shard has. Whatever earlier blocks left
		// pending lies inside it or inside what it leaves pending in turn.
		p.bypassBlocks.Add(1)
		p.bypassBytes.Add(int64(n))
		reach, first := p.maxSpan/2, p.win[0]
		w.newsp[first] = append(w.newsp[first], span{blo - reach, bhi + reach})
		for _, i := range p.win {
			w.pending[i] = w.pending[i][:0]
		}
		if gate != nil {
			for _, g := range p.gates {
				gate[g] = true // unknowable without the matcher
			}
		}
		p.walk(s, w, tail, cur, ahead, first, p.win, reach)
		scanned = int64(len(p.win))
	} else {
		p.cascade(w, gate, tail, cur, blo, bhi)
		if timed {
			walk0 = time.Now()
		}
		p.addSpans(w, tail, cur, ahead)
		for k, i := range p.win {
			if p.shards[i].rules != nil {
				p.closeRules(w, tail, cur, i)
				if w.windows[i] == 0 {
					skipped++
				} else {
					scanned++
				}
				continue
			}
			w.newsp[i] = append(w.newsp[i], w.pending[i]...)
			w.pending[i] = w.pending[i][:0]
			if len(w.newsp[i]) == 0 {
				skipped++
				continue
			}
			scanned++
			p.walk(s, w, tail, cur, ahead, i, p.win[k:k+1], p.shards[i].maxLen)
		}
	}
	var total int64
	for _, i := range p.win {
		total += w.walked[i]
	}
	p.totalBytes.Add(int64(n * len(p.win)))
	p.candBytes.Add(total)
	p.chunksScanned.Add(scanned)
	p.chunksSkipped.Add(skipped)
	var walkNs int64
	if timed {
		end := time.Now()
		p.arms.record(whole, n, end.Sub(t0).Nanoseconds())
		walkNs = end.Sub(walk0).Nanoseconds()
	}
	for _, i := range p.win {
		if w.windows[i] > 0 {
			s.shards[i].m.Charge(engine.Cost{Ns: walkNs * w.walked[i] / total, Bytes: w.walked[i], Windows: w.windows[i]})
		}
	}
	return scanned, skipped
}

// cascade runs the literal matcher for the block and leaves its hits in
// w.hits, positions relative to cur[0] (and opens the gates they
// witness): literals that begin in the block, including those that run
// on past its end, and — in a stream — those the previous Write cut in
// two, found by matching the (litMax−1)-byte overlap and keeping the
// true straddlers (hits wholly in the tail were the previous block's,
// hits wholly in cur are found above).
//
//sfa:noalloc
func (p *setPre) cascade(w *winState, gate []bool, tail, cur []byte, blo, bhi int) {
	w.hits = p.m.AppendHits(w.hits[:0], cur[blo:min(bhi+p.litMax-1, len(cur))])
	own := w.hits[:0]
	for _, h := range w.hits {
		if h.Pos < bhi-blo {
			own = append(own, prefilter.Hit{Lit: h.Lit, Pos: h.Pos + blo})
		}
	}
	w.hits = own
	if gate != nil {
		for _, h := range own {
			for _, t := range p.targets[h.Lit] {
				gate[t.shard] = true
			}
		}
	}
	left := min(p.litMax-1, len(tail))
	if left <= 0 {
		return
	}
	reg := append(w.wbuf[:0], tail[len(tail)-left:]...)
	reg = append(reg, cur[:min(p.litMax-1, len(cur))]...)
	w.wbuf = reg[:0]
	w.hits = p.m.AppendHits(w.hits, reg)
	cut := w.hits[:len(own)]
	for _, h := range w.hits[len(own):] {
		if h.Pos < left && h.Pos+len(p.m.Lits()[h.Lit]) > left {
			cut = append(cut, prefilter.Hit{Lit: h.Lit, Pos: h.Pos - left})
		}
	}
	w.hits = cut
}

// walk verifies the candidate spans in w.newsp[i] on every shard of sel
// — shard i alone on the cascade arm, all window shards in one
// lock-step pass on the whole arm — ORing verdicts into w.acc. maxLen
// bounds an occurrence of any rule of those shards.
//
//sfa:noalloc
func (p *setPre) walk(s *Set, w *winState, tail, cur []byte, ahead, i int, sel []int, maxLen int) {
	for _, sp := range mergeSpans(w.newsp[i], -len(tail), len(cur)+ahead) {
		hi := sp.hi
		if hi > len(cur) {
			// The window awaits input: walk what is here — occurrences
			// completed inside it must show in Mask now — and keep the rest
			// pending, relative to the next buffer. Only an occurrence that
			// ends past len(cur) is still owed, and it begins less than
			// maxLen before that.
			for _, j := range sel {
				w.pending[j] = append(w.pending[j],
					span{max(sp.lo-len(cur), -maxLen), sp.hi - len(cur)})
			}
			hi = len(cur)
		}
		if hi <= sp.lo {
			continue
		}
		a, b := w.window(tail, cur, sp.lo, hi, maxLen)
		for _, piece := range [2][]byte{a, b} {
			if len(piece) == 0 {
				continue
			}
			if len(sel) == 1 {
				s.shards[i].m.OrMask(piece, w.acc[i])
			} else {
				s.lock.OrMasks(sel, piece, w.acc)
			}
			for _, j := range sel {
				w.walked[j] += int64(len(piece))
				w.windows[j]++
			}
		}
	}
}

// window cuts the buffer-relative window [lo, hi), −len(tail) ≤ lo <
// hi ≤ len(cur), into the slices to walk. Inside cur it is one direct
// slice. A window that begins in the tail is walked as the junction —
// its tail part plus up to maxLen bytes of cur, materialized in w.wbuf
// — and, when it runs on, all of cur[:hi]: the pieces overlap by the
// junction's whole cur part, so no occurrence (≤ maxLen long) is split
// between them.
//
//sfa:noalloc
func (w *winState) window(tail, cur []byte, lo, hi, maxLen int) (a, b []byte) {
	if lo >= 0 {
		return cur[lo:hi], nil
	}
	if hi <= 0 {
		return tail[len(tail)+lo : len(tail)+hi], nil
	}
	w.wbuf = append(w.wbuf[:0], tail[len(tail)+lo:]...)
	w.wbuf = append(w.wbuf, cur[:min(hi, maxLen)]...)
	if hi > maxLen {
		b = cur[:hi]
	}
	return w.wbuf, b
}

// mergeSpans clips spans to [lo, hi), sorts them, and merges overlaps
// in place.
func mergeSpans(spans []span, lo, hi int) []span {
	if len(spans) == 0 {
		return spans
	}
	for i := range spans {
		if spans[i].lo < lo {
			spans[i].lo = lo
		}
		if spans[i].hi > hi {
			spans[i].hi = hi
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return a.lo - b.lo })
	out := spans[:1]
	for _, sp := range spans[1:] {
		if last := &out[len(out)-1]; sp.lo <= last.hi {
			if sp.hi > last.hi {
				last.hi = sp.hi
			}
		} else {
			out = append(out, sp)
		}
	}
	return out
}

// ForceArm replaces the measured per-block arm choice with f — block
// sequence number → take the whole arm — and nil restores it. The arm
// never changes a verdict; this is how the differential tests prove it,
// by driving every schedule. Call it before the set is shared. A set
// without window shards has no blocks to choose for.
func (s *Set) ForceArm(f func(block int64) bool) {
	if s.pre != nil && len(s.pre.win) > 0 {
		s.pre.forceArm = f
	}
}

// PrefilterStats is a point-in-time snapshot of the literal cascade's
// configuration and effect.
type PrefilterStats struct {
	Enabled  bool   // a prefilter is armed on this set
	Stage    string // cascade stage of the global literal matcher
	Literals int    // distinct literals matched

	RulesCovered   int // rules the cascade accelerates (literals or prefix bound)
	RulesUncovered int // rules that always scan in full

	WindowShards int
	PrefixShards int
	GateShards   int
	FullShards   int

	ShardsSkipped  int64 // one-shot shard scans skipped outright
	CandidateBytes int64 // bytes walked by prefiltered shards
	TotalBytes     int64 // bytes they would have walked unfiltered
	ChunksSkipped  int64 // window-shard blocks (stream writes, 64 KiB scan blocks) with no candidate work
	ChunksScanned  int64 // window-shard blocks with candidate windows

	// The per-block arm choice: blocks (and their bytes) that skipped the
	// matcher and walked every window shard whole in one lock-step pass,
	// and the smoothed measured cost of each arm, 0 until first measured.
	BypassedBlocks  int64
	BypassedBytes   int64
	CascadeNsPerKiB int64
	WholeNsPerKiB   int64

	MatcherCalls int64 // global literal matcher invocations
	MatcherBytes int64 // input bytes swept by the matcher
	MatcherHits  int64 // literal occurrences it surfaced
}

// PrefilterStats reports the armed prefilter's static shape and its
// dynamic counters since the set was built. The zero value means the
// set was compiled without a prefilter.
func (s *Set) PrefilterStats() PrefilterStats {
	p := s.pre
	if p == nil {
		return PrefilterStats{}
	}
	st := PrefilterStats{
		Enabled:        true,
		RulesCovered:   p.covered,
		RulesUncovered: p.uncovered,
		ShardsSkipped:  p.shardsSkipped.Load(),
		CandidateBytes: p.candBytes.Load(),
		TotalBytes:     p.totalBytes.Load(),
		ChunksSkipped:  p.chunksSkipped.Load(),
		ChunksScanned:  p.chunksScanned.Load(),

		BypassedBlocks:  p.bypassBlocks.Load(),
		BypassedBytes:   p.bypassBytes.Load(),
		CascadeNsPerKiB: p.arms.cost[0].Load(),
		WholeNsPerKiB:   p.arms.cost[1].Load(),
	}
	if p.m != nil {
		ms := p.m.Stats()
		st.Stage = ms.Stage
		st.Literals = len(p.m.Lits())
		st.MatcherCalls = ms.Calls
		st.MatcherBytes = ms.Bytes
		st.MatcherHits = ms.Hits
	}
	for _, sp := range p.shards {
		switch sp.mode {
		case preWindow:
			st.WindowShards++
		case prePrefix:
			st.PrefixShards++
		case preGate:
			st.GateShards++
		default:
			st.FullShards++
		}
	}
	return st
}
