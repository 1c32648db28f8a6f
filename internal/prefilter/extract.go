package prefilter

import (
	"slices"
	"sort"

	"repro/internal/syntax"
)

// Extraction caps. A required set bigger than maxLits stops paying for
// itself in the verify stage; literals longer than maxLitLen gain
// nothing (the matcher filters on a literal's first four bytes, and
// candidates past that filter are rare); classes wider than classCap
// explode the cross-products that enumerate them.
const (
	maxLits   = 64
	maxLitLen = 16
	classCap  = 4
	expandCap = 2048 // NumPositions bound for ExpandRepeats pre-pass
	maxWindow = 4096 // beyond this, windows stop being windows
	minUseful = 2    // single-byte literals must pass selectiveByte
)

// Rule is the per-rule extraction result the matcher and the shard
// planner consume.
type Rule struct {
	// Lits is the required-literal set: every input matched by the rule
	// contains at least one member as a substring. nil means no
	// selective set could be extracted — the rule is uncovered and must
	// be scanned in full.
	Lits []string
	// MaxLen bounds the length of the shortest occurrence inside any
	// match of the (anchor-stripped) pattern; -1 when unbounded. Every
	// matching input contains an occurrence no longer than MaxLen (an
	// unbounded repetition at an unanchored edge of the pattern shrinks
	// to its minimum count — a prefix or suffix of the repeated run is
	// itself a contiguous occurrence), and that occurrence, containing
	// a length-l literal hit at position p, lies inside
	// [p+l-MaxLen, p+MaxLen]. Extent narrows that per literal.
	MaxLen int
	// pre and fwd are the required set's window extents (see Extent): the
	// most bytes such an occurrence holds before the start of the literal
	// hit that witnesses it, and from that start on. fwd == 0: not derived
	// (the rule is not windowable), and Extent falls back to MaxLen alone.
	pre, fwd int
	// Window reports that candidate-window scanning is sound and
	// bounded for this rule under search semantics: covered, unanchored
	// on both sides, and MaxLen finite.
	Window bool
	// Prefix reports that under search semantics the rule's verdict
	// depends only on the first MaxLen input bytes: begin-anchored (the
	// occurrence starts at byte 0), not end-anchored (the trailing .*
	// bracket makes the verdict monotone in the prefix length), MaxLen
	// finite. Prefix rules need no literals — the bounded prefix scan
	// itself is the filter.
	Prefix bool
}

// Covered reports whether the rule has a required-literal set.
func (r Rule) Covered() bool { return r.Lits != nil }

// Extent returns the candidate window a hit of literal lit (a member of
// Lits) at position p opens: [p−back, p+fwd). It is MaxLen's window,
// [p+len(lit)−MaxLen, p+MaxLen], narrowed to where the literal sits in
// the rule — a literal that heads the rule has nothing before it, so its
// back is 0. Both bounds hold for one occurrence and one hit in it, so
// the narrower of each pair holds too, and no window is ever wider than
// MaxLen's. A literal longer than MaxLen gets back = 0: some shorter
// member covers the minimal occurrence, so its hit's window is merely
// extra.
func (r Rule) Extent(lit string) (back, fwd int) {
	back, fwd = max(r.MaxLen-len(lit), 0), r.MaxLen
	if r.fwd > 0 {
		back, fwd = min(back, r.pre), min(fwd, r.fwd)
	}
	return back, fwd
}

// Extract analyzes one parsed rule. node is the rule as parsed —
// before any search bracketing (the implicit .* brackets would make
// every required set empty). search selects substring-search
// semantics; whole-input rules are gateable but never windowed (the
// match is the entire input, so there is nothing to window).
func Extract(node *syntax.Node, search bool) Rule {
	stripped, begin, end := syntax.StripAnchors(node)
	walk := stripped
	if walk.NumPositions() <= expandCap {
		walk = syntax.ExpandRepeats(walk)
	}
	// Edge shrinking is sound exactly where no anchor pins the
	// occurrence: a begin anchor forbids dropping leading repetitions
	// (the occurrence must keep starting at byte 0), an end anchor
	// forbids dropping trailing ones.
	v := analyze(walk, !begin, !end)
	r := Rule{Lits: requiredSet(v), MaxLen: matchMaxLen(stripped, !begin, !end)}
	bounded := r.MaxLen >= 0 && r.MaxLen <= maxWindow
	r.Window = search && r.Lits != nil && !begin && !end && bounded
	r.Prefix = search && begin && !end && bounded
	// The extents bound occurrences shrunk on walk, MaxLen those shrunk on
	// stripped. The two differ where ExpandRepeats moved a repetition off
	// an edge — a leading x{n,} becomes x…x·x*, whose star is no longer
	// first and cannot shrink — or onto one (the first or last copy of an
	// edge x{n,m}). Where walk's bound is no wider than MaxLen, its shrunk
	// occurrence meets both bounds for the same hit, and every length on
	// the path that supplied the set is finite and unsaturated, so pre and
	// fwd are exact sums; elsewhere Extent keeps MaxLen's window.
	if walkMax := matchMaxLen(walk, !begin, !end); r.Window && walkMax >= 0 && walkMax <= r.MaxLen {
		r.pre, r.fwd = v.pre, v.fwd
	}
	return r
}

// lang is the analysis value for a subtree: a set of strings plus an
// exactness bit. exact means lits enumerates the subtree's language
// completely (so it can be cross-multiplied with a neighbor); inexact
// means lits is merely a required set — every word of the language
// contains some member. lits == nil is ⊤: nothing is known.
//
// pre and fwd are the set's extents over the words the subtree can take
// in an occurrence shrunk as matchMaxLen shrinks it: each such word
// holds a member starting at most pre bytes into it and at most fwd bytes
// before its end. An exact value's member is the whole word (pre 0, fwd
// the longest word). They are meaningful only where every length on the
// way down is finite, which Extract checks at the root.
type lang struct {
	lits     []string
	exact    bool
	pre, fwd int
}

func top() lang { return lang{} }

// asRequired downgrades a value to a plain required set, which is what
// one-or-more repetition preserves (every repetition contains a first
// iteration). A set containing "" requires nothing.
func asRequired(v lang) lang {
	if v.lits == nil || slices.Contains(v.lits, "") {
		return top()
	}
	return lang{lits: v.lits, pre: v.pre, fwd: v.fwd}
}

// analyze computes n's value; lead and trail are matchMaxLen's edge
// flags, passed down the same way, so the extents measure the same
// shrunk occurrence MaxLen does.
func analyze(n *syntax.Node, lead, trail bool) lang {
	switch n.Op {
	case syntax.OpEmpty, syntax.OpAnchor:
		return lang{exact: true, lits: []string{""}}
	case syntax.OpClass:
		bs := n.Set.Bytes()
		if len(bs) == 0 || len(bs) > classCap {
			return top()
		}
		lits := make([]string, len(bs))
		for i, b := range bs {
			lits[i] = string([]byte{b})
		}
		return lang{exact: true, lits: lits, fwd: 1}
	case syntax.OpConcat:
		return analyzeConcat(n.Sub, lead, trail)
	case syntax.OpAlt:
		return analyzeAlt(n.Sub, lead, trail)
	case syntax.OpQuest:
		v := analyze(n.Sub[0], lead, trail)
		if v.exact && len(v.lits) < maxLits {
			return lang{exact: true, lits: append(v.lits[:len(v.lits):len(v.lits)], ""), fwd: v.fwd}
		}
		return top()
	case syntax.OpPlus:
		// At an edge the run shrinks to one copy, which holds a member
		// where a copy does; elsewhere the run is unbounded, and so is
		// the pattern.
		return asRequired(analyze(n.Sub[0], lead, trail))
	case syntax.OpRepeat:
		// Usually gone after ExpandRepeats; kept for trees too large to
		// expand. x{min≥1,…} inherits x's required set, with the member
		// taken in the first copy and the other copies after it.
		if n.Min >= 1 {
			v := asRequired(analyze(n.Sub[0], false, false))
			if v.lits != nil {
				v.fwd += matchMaxLen(n, lead, trail) - matchMaxLen(n.Sub[0], false, false)
			}
			return v
		}
		return top()
	}
	// OpStar, OpNone, and anything unknown: no required literal.
	return top()
}

// analyzeConcat folds a factor sequence. Consecutive exact factors are
// cross-multiplied into an exact run; a non-exact factor closes the
// run, turning it into a required-set candidate (a run covers a
// contiguous factor segment, so every word of the concat contains one
// of its strings). The best candidate — or, when no factor broke
// exactness, the whole exact product — wins. A candidate's extents are
// its factor's, widened by the most bytes the factors before and after
// it hold; a run's member starts where its first factor does.
func analyzeConcat(subs []*syntax.Node, lead, trail bool) lang {
	// off[i]: the most bytes factors before i hold; off[len(subs)]: all.
	off := make([]int, len(subs)+1)
	for i, sub := range subs {
		off[i+1] = off[i] + matchMaxLen(sub, lead && i == 0, trail && i == len(subs)-1)
	}
	total := off[len(subs)]
	var best lang
	run, runAt := []string{""}, 0
	wholeExact := true
	closeRun := func(next int) {
		best = better(best, lang{lits: run, pre: off[runAt], fwd: total - off[runAt]})
		run, runAt = []string{""}, next
	}
	for i, sub := range subs {
		v := analyze(sub, lead && i == 0, trail && i == len(subs)-1)
		if v.exact {
			if cross, ok := crossCapped(run, v.lits); ok {
				run = cross
				continue
			}
			// Product too large to track exactly: bank the run so far
			// and restart from this factor alone.
			closeRun(i)
			wholeExact = false
			run = v.lits
			continue
		}
		closeRun(i + 1)
		wholeExact = false
		if v.lits != nil {
			best = better(best, lang{lits: v.lits, pre: off[i] + v.pre, fwd: v.fwd + total - off[i+1]})
		}
	}
	if wholeExact {
		return lang{exact: true, lits: run, fwd: total}
	}
	closeRun(len(subs))
	return lang{lits: best.lits, pre: best.pre, fwd: best.fwd}
}

// analyzeAlt unions branch requirements: a word of the alternation is a
// word of some branch, so the union of per-branch required sets is
// required — provided every branch contributed one. Over-cap unions
// are truncated member-wise (a prefix of a required string is still
// required, and starts where the string did) before giving up. The
// extents are the widest branch's.
func analyzeAlt(subs []*syntax.Node, lead, trail bool) lang {
	allExact := true
	var merged []string
	pre, fwd := 0, 0
	for _, sub := range subs {
		v := analyze(sub, lead, trail)
		if v.lits == nil {
			return top()
		}
		merged = append(merged, v.lits...)
		allExact = allExact && v.exact
		pre, fwd = max(pre, v.pre), max(fwd, v.fwd)
	}
	if len(dedup(slices.Clone(merged))) > maxLits {
		merged = shrinkToCap(merged)
		allExact = false
	}
	if merged == nil {
		return top()
	}
	return lang{lits: merged, exact: allExact, pre: pre, fwd: fwd}
}

// crossCapped concatenates every pair, refusing (ok=false) when the
// product leaves the caps: members longer than maxLitLen cannot be
// extended exactly, and more than maxLits members cannot be tracked.
func crossCapped(a, b []string) ([]string, bool) {
	if len(a)*len(b) > maxLits {
		return nil, false
	}
	for _, x := range a {
		if len(x) >= maxLitLen {
			return nil, false
		}
	}
	out := make([]string, 0, len(a)*len(b))
	for _, x := range a {
		for _, y := range b {
			s := x + y
			if len(s) > maxLitLen {
				s = s[:maxLitLen]
			}
			out = append(out, s)
		}
	}
	out = dedup(out)
	if len(out) > maxLits {
		return nil, false
	}
	return out, true
}

// shrinkToCap truncates all members to the longest shared length that
// brings the deduplicated set under maxLits, nil when even length-1
// prefixes don't fit.
func shrinkToCap(lits []string) []string {
	for k := maxLitLen; k >= 1; k-- {
		cut := make([]string, len(lits))
		for i, s := range lits {
			if len(s) > k {
				s = s[:k]
			}
			cut[i] = s
		}
		cut = dedup(cut)
		if len(cut) <= maxLits {
			return cut
		}
	}
	return nil
}

// better picks the more selective required-set candidate: longer
// minimum member first, then fewer members. Sets containing "" (or
// empty/nil sets) require nothing and always lose. The winner keeps its
// extents.
func better(a, b lang) lang {
	sa, oka := score(a.lits)
	sb, okb := score(b.lits)
	switch {
	case !okb:
		return a
	case !oka:
		return b
	case sb.minLen != sa.minLen:
		if sb.minLen > sa.minLen {
			return b
		}
		return a
	case sb.n < sa.n:
		return b
	}
	return a
}

type setScore struct{ minLen, n int }

func score(lits []string) (setScore, bool) {
	if len(lits) == 0 {
		return setScore{}, false
	}
	s := setScore{minLen: maxLitLen + 1, n: len(lits)}
	for _, l := range lits {
		if len(l) == 0 {
			return setScore{}, false
		}
		if len(l) < s.minLen {
			s.minLen = len(l)
		}
	}
	return s, true
}

// requiredSet turns the analysis value into the final per-rule literal
// set: deduplicated, sorted, capped, and selective. A set with a ""
// member requires nothing; single-byte members must be uncommon bytes
// or the windows they open cover most of the input (the low-selectivity
// pessimization the stats are there to reveal — see the engine README).
func requiredSet(v lang) []string {
	if v.lits == nil || len(v.lits) == 0 {
		return nil
	}
	lits := dedup(append([]string(nil), v.lits...))
	if len(lits) > maxLits {
		lits = shrinkToCap(lits)
		if lits == nil {
			return nil
		}
	}
	for _, l := range lits {
		if len(l) == 0 {
			return nil
		}
		if len(l) < minUseful && !selectiveByte(l[0]) {
			return nil
		}
	}
	return lits
}

// selectiveByte reports whether a single-byte literal is worth
// filtering on: bytes common in text-ish traffic (letters, digits,
// whitespace, everyday punctuation) open windows around most of the
// input and pessimize the scan; control and high bytes (NOP sleds,
// NULs) are rare and filter well.
func selectiveByte(b byte) bool {
	switch {
	case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9':
		return false
	case b == ' ', b == '\t', b == '\r', b == '\n':
		return false
	}
	switch b {
	case '.', ',', ':', ';', '/', '-', '_', '=', '?', '&', '%', '+',
		'\'', '"', '(', ')', '<', '>', '*', '#', '@', '!', '[', ']':
		return false
	}
	return true
}

func dedup(lits []string) []string {
	sort.Strings(lits)
	return slices.Compact(lits)
}

// matchMaxLen bounds the length of the shortest occurrence contained in
// any word the subtree matches, -1 when unbounded. lead/trail mark that
// the subtree sits at an unanchored leading/trailing edge of the whole
// pattern, where an unbounded repetition shrinks to its minimum count:
// if w = x₁…x_k·b matches x{n,}·b, the contiguous suffix x_{k−n+1}…x_k·b
// matches x{n}·b ⊆ x{n,}·b (symmetrically for a trailing run), so every
// match contains an occurrence that keeps only n copies of an edge run.
// Internal repetitions cannot shrink — dropping middle copies is not a
// substring — and stay unbounded.
func matchMaxLen(n *syntax.Node, lead, trail bool) int {
	switch n.Op {
	case syntax.OpNone, syntax.OpEmpty, syntax.OpAnchor:
		return 0
	case syntax.OpClass:
		return 1
	case syntax.OpConcat:
		sum := 0
		for i, sub := range n.Sub {
			m := matchMaxLen(sub, lead && i == 0, trail && i == len(n.Sub)-1)
			if m < 0 {
				return -1
			}
			sum += m
			if sum > maxWindow+1 {
				return maxWindow + 1 // saturate: already too wide to window
			}
		}
		return sum
	case syntax.OpAlt:
		max := 0
		for _, sub := range n.Sub {
			m := matchMaxLen(sub, lead, trail)
			if m < 0 {
				return -1
			}
			if m > max {
				max = m
			}
		}
		return max
	case syntax.OpQuest:
		return matchMaxLen(n.Sub[0], lead, trail)
	case syntax.OpStar:
		if matchMaxLen(n.Sub[0], false, false) == 0 {
			return 0
		}
		if lead || trail {
			return 0 // edge run shrinks to zero copies
		}
		return -1
	case syntax.OpPlus:
		m := matchMaxLen(n.Sub[0], lead, trail)
		if m == 0 {
			return 0
		}
		if (lead || trail) && m > 0 {
			return m // edge run shrinks to one copy
		}
		return -1
	case syntax.OpRepeat:
		m := matchMaxLen(n.Sub[0], false, false)
		if m == 0 {
			return 0
		}
		if m < 0 {
			return -1
		}
		count := n.Max
		if count < 0 {
			if !lead && !trail {
				return -1
			}
			count = n.Min // x{n,} at an edge shrinks to n copies
		}
		if prod := m * count; prod <= maxWindow+1 {
			return prod
		}
		return maxWindow + 1
	}
	return -1
}
