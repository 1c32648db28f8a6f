package prefilter

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dfa"
	"repro/internal/syntax"
)

// TestExtent pins the window a hit of each literal opens, [p−back,
// p+fwd), for the shapes the extents are derived from: a literal at the
// head, the tail and the middle of its rule, alternation, edge
// repetitions shrunk to their minimum, case-insensitive variants, and a
// literal longer than the shrunk occurrence bound. MaxLen's window,
// [p+l−MaxLen, p+MaxLen], is beside each for comparison.
func TestExtent(t *testing.T) {
	cases := []struct {
		name      string
		pattern   string
		flags     syntax.Flags
		lit       string
		back, fwd int
	}{
		// The gap rule of the lazy workload: nothing before the head
		// literal can matter, 14 bytes from it can (MaxLen's window: 25).
		{"head literal", `q00.{0,8}z00`, 0, "q00", 0, 14},
		// ids16's r009: 48 bytes instead of 90.
		{"head literal, bounded class run", `Host\x3a [a-z0-9\.-]{4,40}\x0d\x0a`, 0, "Host: ", 0, 48},
		{"tail literal", `[a-z0-9]{1,6}@corp\.example`, 0, "@corp.example", 6, 13},
		{"middle literal", `[0-9]{1,3}-GET /-[0-9]{1,5}`, 0, "-GET /-", 3, 12},
		{"middle literal of a group", `[0-9]{2}(x|y)needle(a|b)[0-9]{3}`, 0, "yneedleb", 2, 11},
		{"alternation: widest branch", `(id=[0-9]{1,6}|uid=[0-9]{1,2})'`, 0, "id=", 0, 10},
		{"alternation of inexact branches", `([0-9]{2}abcd|[0-9]{5}wxyz[0-9])`, 0, "abcd", 5, 5},
		{"trailing at-least shrinks to min", `Content-Length: [0-9]{7,}`, 0, "Content-Length: ", 0, 23},
		{"trailing plus shrinks to one copy", `needle(ab)+`, 0, "needle", 0, 8},
		{"leading plus shrinks to one copy", `([0-9]x)+needle`, 0, "needle", 2, 6},
		{"trailing star shrinks to none", `needle[0-9]*`, 0, "needle", 0, 6},
		{"edge plus supplies the literal", `[0-9]{3}(abc)+`, 0, "abc", 3, 3},
		// A leading x{n,} expands to x…x·x*, whose star the expanded tree
		// cannot shrink: the extents fall back to MaxLen's window.
		{"leading at-least falls back to MaxLen", `[0-9]{4,}@corp`, 0, "@corp", 4, 9},
		{"case-insensitive variants", `[0-9]{2}cmd\.exe`, syntax.FoldCase, "CmD.ExE", 2, 7},
		{"case-insensitive head", `cmd\.exe[0-9]{1,4}`, syntax.FoldCase, "cmd.exe", 0, 11},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := extract(t, c.pattern, c.flags, true)
			if !r.Window {
				t.Fatalf("%q is not windowable: %+v", c.pattern, r)
			}
			found := false
			for _, l := range r.Lits {
				found = found || l == c.lit
			}
			if !found {
				t.Fatalf("%q: %q is not a literal of %q", c.pattern, c.lit, r.Lits)
			}
			back, fwd := r.Extent(c.lit)
			if back != c.back || fwd != c.fwd {
				t.Errorf("%q: Extent(%q) = (%d, %d), want (%d, %d); MaxLen %d", c.pattern, c.lit, back, fwd, c.back, c.fwd, r.MaxLen)
			}
		})
	}
	// A member longer than MaxLen — no parse yields one today (the oracle
	// below meets none), but Extent must not trust the set's extents for
	// it: its window starts at the hit and is at most MaxLen long.
	r := Rule{Lits: []string{"\x00", "abcdefgh"}, MaxLen: 4, Window: true, pre: 3, fwd: 4}
	if back, fwd := r.Extent("abcdefgh"); back != 0 || fwd != 4 {
		t.Errorf("literal longer than MaxLen: Extent = (%d, %d), want (0, 4)", back, fwd)
	}
}

// TestExtentOracle checks the window contract the extents must keep
// against the rule's own DFA: for random patterns and texts, every
// minimal occurrence — a substring the pattern matches that holds no
// shorter one — lies inside [p−back, p+fwd) of some hit of one of the
// rule's literals. Every match holds a minimal occurrence, and the
// search-bracketed DFA accepts any window that holds one, so this is
// what verifying windows instead of the text rests on. No extent may be
// wider than MaxLen's window, and many must be narrower (a rule that is
// one literal cannot be).
func TestExtentOracle(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	want := 3000
	if testing.Short() {
		want = 600
	}
	rules, narrower, occurrences := 0, 0, 0
	for rules < want {
		pat := genPattern(r, 3)
		var flags syntax.Flags
		if r.Intn(6) == 0 {
			flags = syntax.FoldCase
		}
		node, err := syntax.Parse(pat, flags)
		if err != nil {
			continue
		}
		info := Extract(node, true)
		if !info.Window {
			continue
		}
		d, err := dfa.Compile(node, 0)
		if err != nil {
			t.Fatalf("%q: %v", pat, err)
		}
		rules++
		for _, l := range info.Lits {
			back, fwd := info.Extent(l)
			if back > max(info.MaxLen-len(l), 0) || fwd > info.MaxLen {
				t.Fatalf("%q: Extent(%q) = (%d, %d) is wider than MaxLen %d allows", pat, l, back, fwd, info.MaxLen)
			}
			if back+fwd < 2*info.MaxLen-len(l) {
				narrower++
				break
			}
		}
		for k := 0; k < 20; k++ {
			occurrences += checkWindows(t, pat, info, d, genText(r, node))
		}
	}
	if narrower < rules/4 || occurrences < 10*rules {
		t.Fatalf("the oracle exercised too little: %d of %d rules have a narrower window, %d occurrences", narrower, rules, occurrences)
	}
	// Trees too large to expand keep their counted repetitions, whose
	// member is taken in the first copy, the other copies after it.
	for _, c := range []struct{ pat, text string }{
		{`(?:abc[0-9]){2,700}`, "zzabc1abc2abc3zzabc4abc5"},
		{`x[0-9]{2}(?:abcd){1,600}yz`, "x12abcdabcdyz x99abcdyz"},
		{`(?:ab[0-9]){3,}(?:zz){0,1100}`, "ab1ab2ab3zzab4"},
	} {
		node := syntax.MustParse(c.pat, 0)
		info := Extract(node, true)
		d, err := dfa.Compile(node, 0)
		if err != nil || !info.Window || node.NumPositions() <= expandCap {
			t.Fatalf("%q: %v, %+v, %d positions", c.pat, err, info, node.NumPositions())
		}
		if checkWindows(t, c.pat, info, d, []byte(c.text)) == 0 {
			t.Fatalf("%q: no occurrence in %q", c.pat, c.text)
		}
	}
}

// checkWindows fails unless every minimal occurrence of the pattern in
// text lies inside the window of some literal hit, and returns how many
// there were.
func checkWindows(t *testing.T, pat string, info Rule, d *dfa.DFA, text []byte) int {
	t.Helper()
	n := len(text)
	// match[s][e]: text[s:e] is a word of the pattern; holds[s][e]: some
	// word of it lies within text[s:e].
	match, holds := make([][]bool, n+1), make([][]bool, n+1)
	for s := 0; s <= n; s++ {
		match[s], holds[s] = make([]bool, n+1), make([]bool, n+1)
		q := d.Start
		match[s][s] = d.Accept[q]
		for e := s; e < n && q != d.Dead; e++ {
			q = d.NextByte(q, text[e])
			match[s][e+1] = d.Accept[q]
		}
	}
	for size := 0; size <= n; size++ {
		for s := 0; s+size <= n; s++ {
			e := s + size
			holds[s][e] = match[s][e] || size > 0 && (holds[s+1][e] || holds[s][e-1])
		}
	}
	hits := naiveHits(info.Lits, text)
	count := 0
	for s := 0; s < n; s++ {
		for e := s + 1; e <= n; e++ {
			if !match[s][e] || holds[s+1][e] || holds[s][e-1] {
				continue
			}
			count++
			inside := false
			for _, h := range hits {
				back, fwd := info.Extent(info.Lits[h.Lit])
				inside = inside || h.Pos-back <= s && e <= h.Pos+fwd
			}
			if !inside {
				t.Fatalf("%q (lits %q, MaxLen %d): occurrence %q at [%d, %d) of %q lies in no hit's window; hits %v",
					pat, info.Lits, info.MaxLen, text[s:e], s, e, text, hits)
			}
		}
	}
	return count
}

// genText is up to 48 bytes of filler with a few words of the pattern
// planted in it.
func genText(r *rand.Rand, node *syntax.Node) []byte {
	text := randWord(r, []byte("abcd\x00\n"), r.Intn(24))
	for k := r.Intn(4); k > 0; k-- {
		w := genMatch(r, node)
		at := r.Intn(len(text) + 1)
		text = append(text[:at:at], append([]byte(w), text[at:]...)...)
	}
	return text[:min(len(text), 48)]
}

// genPattern draws a random pattern over a small alphabet from every
// construct the extents are derived from: literal runs, narrow and wide
// classes, concatenation, alternation, ?, *, + and counted repetitions
// bounded and not.
func genPattern(r *rand.Rand, depth int) string {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(6) {
		case 0:
			return "[ab]"
		case 1:
			return "."
		case 2:
			return `\x00`
		default:
			return string(randWord(r, []byte("abcd"), 1+r.Intn(4)))
		}
	}
	sub := func() string { return "(?:" + genPattern(r, depth-1) + ")" }
	switch r.Intn(9) {
	case 0, 1, 2:
		return genPattern(r, depth-1) + genPattern(r, depth-1)
	case 3:
		return "(?:" + genPattern(r, depth-1) + "|" + genPattern(r, depth-1) + ")"
	case 4:
		return sub() + "?"
	case 5:
		return sub() + "*"
	case 6:
		return sub() + "+"
	case 7:
		lo := r.Intn(3)
		return sub() + fmt.Sprintf("{%d,%d}", lo, lo+r.Intn(3))
	default:
		return sub() + fmt.Sprintf("{%d,}", r.Intn(3))
	}
}
