package prefilter

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/syntax"
)

func extract(t *testing.T, pattern string, flags syntax.Flags, search bool) Rule {
	t.Helper()
	node, err := syntax.Parse(pattern, flags)
	if err != nil {
		t.Fatalf("parse %q: %v", pattern, err)
	}
	return Extract(node, search)
}

func TestExtract(t *testing.T) {
	cases := []struct {
		name    string
		pattern string
		flags   syntax.Flags
		search  bool
		covered bool
		window  bool
		prefix  bool
		maxLen  int // -2 = don't check
		lits    []string
	}{
		{name: "plain literal", pattern: `foobar`, search: true,
			covered: true, window: true, maxLen: 6, lits: []string{"foobar"}},
		{name: "alternation unions branches", pattern: `(abc|xyzzy)`, search: true,
			covered: true, window: true, maxLen: 5, lits: []string{"abc", "xyzzy"}},
		{name: "begin anchor makes prefix", pattern: `^GET /index\.php`, search: true,
			covered: true, window: false, prefix: true, maxLen: 14},
		{name: "end anchor blocks both", pattern: `foobar$`, search: true,
			covered: true, window: false, prefix: false, maxLen: 6},
		{name: "both anchors block both", pattern: `^foobar$`, search: true,
			covered: true, window: false, prefix: false, maxLen: 6},
		{name: "trailing at-least shrinks to min", pattern: `Content-Length: [0-9]{7,}`, search: true,
			covered: true, window: true, maxLen: 16 + 7, lits: []string{"Content-Length: "}},
		{name: "leading at-least shrinks to min", pattern: `[0-9]{4,}@corp`, search: true,
			covered: true, window: true, maxLen: 4 + 5, lits: []string{"@corp"}},
		{name: "trailing star shrinks to zero", pattern: `needle(ab)*`, search: true,
			covered: true, window: true, maxLen: 6},
		{name: "trailing plus shrinks to one", pattern: `needle(ab)+`, search: true,
			covered: true, window: true, maxLen: 8},
		{name: "internal unbounded stays gate", pattern: `abc[0-9]{3,}xyz`, search: true,
			covered: true, window: false, maxLen: -1},
		{name: "anchored prefix with trailing unbounded", pattern: `^frame/[0-9]{6,}`, search: true,
			covered: true, window: false, prefix: true, maxLen: 6 + 6},
		{name: "whole-input never windows", pattern: `foobar`, search: false,
			covered: true, window: false, prefix: false, maxLen: 6},
		{name: "selective single byte", pattern: `\x90{8,32}`, search: true,
			covered: true, window: true, maxLen: 32},
		{name: "common single byte rejected", pattern: `a[0-9]{3,}z`, search: true,
			covered: false, window: false, maxLen: -1},
		{name: "wide classes defeat extraction", pattern: `[a-z0-9]{8}`, search: true,
			covered: false, window: false, maxLen: 8},
		{name: "nullable pattern requires nothing", pattern: `(abc)*`, search: true,
			covered: false, window: false, maxLen: 0},
		{name: "fold case expands variants", pattern: `cmd`, flags: syntax.FoldCase, search: true,
			covered: true, window: true, maxLen: 3,
			lits: []string{"CMD", "CMd", "CmD", "Cmd", "cMD", "cMd", "cmD", "cmd"}},
		{name: "alternation then literal", pattern: `(login|session|shell) `, search: true,
			covered: true, window: true, maxLen: 8, lits: []string{"login ", "session ", "shell "}},
		{name: "duplicated branch keeps the literals", pattern: `(login|session|shell|login) `, search: true,
			covered: true, window: true, maxLen: 8, lits: []string{"login ", "session ", "shell "}},
		{name: "pathological alternation degrades gracefully",
			pattern: `([^a]{4}|[^b]{4}|[^c]{4})`, search: true,
			covered: false, window: false, maxLen: 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := extract(t, tc.pattern, tc.flags, tc.search)
			if r.Covered() != tc.covered {
				t.Errorf("Covered = %v, want %v (lits %q)", r.Covered(), tc.covered, r.Lits)
			}
			if r.Window != tc.window {
				t.Errorf("Window = %v, want %v", r.Window, tc.window)
			}
			if r.Prefix != tc.prefix {
				t.Errorf("Prefix = %v, want %v", r.Prefix, tc.prefix)
			}
			if tc.maxLen != -2 && r.MaxLen != tc.maxLen {
				t.Errorf("MaxLen = %d, want %d", r.MaxLen, tc.maxLen)
			}
			if tc.lits != nil {
				got := append([]string(nil), r.Lits...)
				sort.Strings(got)
				want := append([]string(nil), tc.lits...)
				sort.Strings(want)
				if strings.Join(got, "\x00") != strings.Join(want, "\x00") {
					t.Errorf("Lits = %q, want %q", got, want)
				}
			}
		})
	}
}

// TestExtractRequiredSetSound verifies the core contract on generated
// inputs: every string the pattern matches (built by walking the syntax
// tree) contains at least one extracted literal.
func TestExtractRequiredSetSound(t *testing.T) {
	patterns := []string{
		`foobar`, `(abc|xyzzy)`, `Content-Length: [0-9]{7,}`,
		`nee(dle|t)(x|y)?`, `\x90{8,32}`, `(GET|POST|HEAD) /`,
	}
	r := rand.New(rand.NewSource(7))
	for _, pat := range patterns {
		node, err := syntax.Parse(pat, 0)
		if err != nil {
			t.Fatalf("parse %q: %v", pat, err)
		}
		info := Extract(node, true)
		if !info.Covered() {
			t.Fatalf("%q: expected coverage", pat)
		}
		stripped, _, _ := syntax.StripAnchors(node)
		for i := 0; i < 200; i++ {
			w := genMatch(r, stripped)
			found := false
			for _, l := range info.Lits {
				if strings.Contains(w, l) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("%q: match %q contains no literal of %q", pat, w, info.Lits)
			}
		}
	}
}

// genMatch samples one word of the subtree's language.
func genMatch(r *rand.Rand, n *syntax.Node) string {
	switch n.Op {
	case syntax.OpEmpty, syntax.OpAnchor, syntax.OpNone:
		return ""
	case syntax.OpClass:
		bs := n.Set.Bytes()
		return string([]byte{bs[r.Intn(len(bs))]})
	case syntax.OpConcat:
		var b strings.Builder
		for _, sub := range n.Sub {
			b.WriteString(genMatch(r, sub))
		}
		return b.String()
	case syntax.OpAlt:
		return genMatch(r, n.Sub[r.Intn(len(n.Sub))])
	case syntax.OpQuest:
		if r.Intn(2) == 0 {
			return ""
		}
		return genMatch(r, n.Sub[0])
	case syntax.OpStar:
		var b strings.Builder
		for k := r.Intn(3); k > 0; k-- {
			b.WriteString(genMatch(r, n.Sub[0]))
		}
		return b.String()
	case syntax.OpPlus:
		var b strings.Builder
		for k := 1 + r.Intn(3); k > 0; k-- {
			b.WriteString(genMatch(r, n.Sub[0]))
		}
		return b.String()
	case syntax.OpRepeat:
		max := n.Max
		if max < 0 {
			max = n.Min + 3
		}
		var b strings.Builder
		for k := n.Min + r.Intn(max-n.Min+1); k > 0; k-- {
			b.WriteString(genMatch(r, n.Sub[0]))
		}
		return b.String()
	}
	return ""
}
