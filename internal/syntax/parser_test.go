package syntax

import (
	"errors"
	"strings"
	"testing"
)

func TestParseBasics(t *testing.T) {
	cases := []struct {
		pattern string
		want    string // Dump form
	}{
		{"a", "a"},
		{"ab", "(cat a b)"},
		{"a|b", "(alt a b)"},
		{"a|b|c", "(alt a b c)"},
		{"a*", "(star a)"},
		{"a+", "(plus a)"},
		{"a?", "(quest a)"},
		{"(ab)*", "(star (cat a b))"},
		{"(a|b)c", "(cat (alt a b) c)"},
		{"", "eps"},
		{"a||b", "(alt a eps b)"},
		{"()", "eps"},
		{"(?:ab)", "(cat a b)"},
		{"a{3}", "(rep{3,3} a)"},
		{"a{2,5}", "(rep{2,5} a)"},
		{"a{2,}", "(rep{2,-1} a)"},
		{"a{0,1}", "(quest a)"},
		{"a{1}", "a"},
		{"a{0,}", "(star a)"},
		{"a{1,}", "(plus a)"},
		{"[0-4]", "[0-4]"},
		{"[abc]", "[a-c]"},
		{"[a-c-]", `[\-a-c]`},
		{"[]a]", `[\]a]`},
		{`\d`, `\d`},
		{`\.`, `\.`},
		{`\x41`, "A"},
		{`\x0a`, `\n`},
		{"a.b", `(cat a . b)`},
		{"^ab$", "(cat bol a b eol)"},
		{"a**", "(star a)"},
		{"(a*)*", "(star a)"},
		{"(a+)+", "(plus a)"},
		{"(a?)?", "(quest a)"},
		{"(a*)?", "(star a)"},
		{"a{", `(cat a \{)`},
		{"a{,3}", `(cat a \{ , 3 \})`},
		{"a{x}", `(cat a \{ x \})`},
	}
	for _, c := range cases {
		n, err := Parse(c.pattern, 0)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.pattern, err)
			continue
		}
		if got := n.Dump(); got != c.want {
			t.Errorf("Parse(%q) = %s, want %s", c.pattern, got, c.want)
		}
	}
}

func TestParseDotDefaultExcludesNewline(t *testing.T) {
	n := MustParse(".", 0)
	if n.Op != OpClass {
		t.Fatalf("got %s", n.Dump())
	}
	if n.Set.Contains('\n') {
		t.Error(". should not contain \\n without DotAll")
	}
	if n.Set.Len() != 255 {
		t.Errorf(". has %d bytes, want 255", n.Set.Len())
	}
	n = MustParse(".", DotAll)
	if !n.Set.Contains('\n') || n.Set.Len() != 256 {
		t.Error("(?s). should match all 256 bytes")
	}
	n = MustParse("(?s).", 0)
	if !n.Set.Contains('\n') {
		t.Error("(?s) group flag should reach the dot")
	}
}

func TestParseFoldCase(t *testing.T) {
	n := MustParse("a", FoldCase)
	if !n.Set.Contains('A') || !n.Set.Contains('a') || n.Set.Len() != 2 {
		t.Errorf("folded a = %v", n.Set)
	}
	n = MustParse("[a-c]", FoldCase)
	if n.Set.Len() != 6 || !n.Set.Contains('B') {
		t.Errorf("folded [a-c] = %v", n.Set)
	}
	n = MustParse("(?i)xyz", 0)
	leaf := n.Sub[0]
	if !leaf.Set.Contains('X') {
		t.Error("(?i) should fold following literals")
	}
	// Folding must not leak out of a group.
	n = MustParse("(?i:a)b", 0)
	if b := n.Sub[1]; b.Set.Contains('B') {
		t.Error("case folding leaked out of (?i:...) group")
	}
}

func TestParseClassEscapes(t *testing.T) {
	n := MustParse(`[\d\s]`, 0)
	if !n.Set.Contains('5') || !n.Set.Contains(' ') || n.Set.Contains('a') {
		t.Errorf("[\\d\\s] = %v", n.Set)
	}
	n = MustParse(`[^\x00-\x7f]`, 0)
	if n.Set.Len() != 128 || n.Set.Contains(0x42) || !n.Set.Contains(0x80) {
		t.Errorf("[^\\x00-\\x7f] = %v", n.Set)
	}
	n = MustParse(`[\]\-\\]`, 0)
	for _, b := range []byte{']', '-', '\\'} {
		if !n.Set.Contains(b) {
			t.Errorf("missing %q", b)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"(", ")", "(a", "a)", "[", "[a", "[z-a]", "*", "+", "?", "a|*",
		`\`, `[\`, `\x`, "a{3,2}", "a{99999}", `\1`, `(?=a)`, `(?<b)`,
		"(?q)a", "[^\\x00-\\xff]", "^*",
	}
	for _, pat := range bad {
		if _, err := Parse(pat, 0); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", pat)
		}
	}
}

func TestParsePCRE(t *testing.T) {
	n, flags, err := ParsePCRE(`/ab+c/i`)
	if err != nil {
		t.Fatal(err)
	}
	if flags&FoldCase == 0 {
		t.Error("missing FoldCase flag")
	}
	if got := n.Dump(); got != "(cat [Aa] (plus [Bb]) [Cc])" {
		t.Errorf("got %s", got)
	}
	if _, _, err := ParsePCRE("noslash"); err == nil {
		t.Error("expected error for missing delimiters")
	}
	if _, _, err := ParsePCRE("/a/x"); err == nil {
		t.Error("expected error for unsupported flag")
	}
	// Escaped slash inside the pattern.
	n, _, err = ParsePCRE(`/a\/b/`)
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Dump(); got != `(cat a \/ b)` && got != "(cat a / b)" {
		t.Errorf("got %s", got)
	}
}

func TestExpandRepeats(t *testing.T) {
	cases := []struct{ in, want string }{
		{"a{3}", "(cat a a a)"},
		{"a{2,4}", "(cat a a (quest a) (quest a))"},
		{"a{2,}", "(cat a a (star a))"},
		{"(ab){2}", "(cat a b a b)"},
		{"a{0,2}", "(cat (quest a) (quest a))"},
	}
	for _, c := range cases {
		n := ExpandRepeats(MustParse(c.in, 0))
		if got := n.Dump(); got != c.want {
			t.Errorf("ExpandRepeats(%q) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestExpandRepeatsDoesNotMutate(t *testing.T) {
	n := MustParse("a{3}", 0)
	before := n.Dump()
	_ = ExpandRepeats(n)
	if n.Dump() != before {
		t.Error("ExpandRepeats mutated its input")
	}
}

func TestNumPositions(t *testing.T) {
	cases := []struct {
		pattern string
		want    int
	}{
		{"abc", 3},
		{"(ab)*", 2},
		{"a{500}", 500},
		{"[0-4]{5}[5-9]{5}", 10},
		{"(a|b){3}", 6},
		{"a{2,}", 2},
		{"", 0},
	}
	for _, c := range cases {
		if got := MustParse(c.pattern, 0).NumPositions(); got != c.want {
			t.Errorf("NumPositions(%q) = %d, want %d", c.pattern, got, c.want)
		}
	}
}

func TestStripAnchors(t *testing.T) {
	n, begin, end := StripAnchors(MustParse("^abc$", 0))
	if !begin || !end {
		t.Errorf("begin=%v end=%v, want true true", begin, end)
	}
	if got := n.Dump(); got != "(cat a b c)" {
		t.Errorf("stripped = %s", got)
	}
	n, begin, end = StripAnchors(MustParse("abc", 0))
	if begin || end {
		t.Error("unanchored pattern misreported")
	}
	if got := n.Dump(); got != "(cat a b c)" {
		t.Errorf("stripped = %s", got)
	}
	_, begin, _ = StripAnchors(MustParse("(^a)|(^b)", 0))
	if !begin {
		t.Error("alternation of anchored branches should report begin")
	}
}

// TestAnchorsOnlyAtEdges pins which anchors Parse accepts: those
// StripAnchors removes soundly (a ^ beginning every alternative, a $
// ending every one). Every rejected pattern here is one the ε treatment
// got wrong — x|^abc and ^abc|xyz matched "zabc", abc$|xyz and
// (abc$|xyz) matched "abcz", a(^b) matched "ab" — and the error names
// the offending anchor and its offset.
func TestAnchorsOnlyAtEdges(t *testing.T) {
	rejected := []struct {
		pattern string
		anchor  string
		pos     int
	}{
		{`x|^abc`, "^", 2},
		{`^abc|xyz`, "^", 0},
		{`abc$|xyz`, "$", 3},
		{`(abc$|xyz)`, "$", 4},
		{`a(^b)`, "^", 2},
		{`abc^`, "^", 3},
		{`$abc`, "$", 0},
		{`^a^b`, "^", 2},
		{`(^a)?b`, "^", 1},
	}
	for _, c := range rejected {
		_, err := Parse(c.pattern, 0)
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("Parse(%q) = %v, want a ParseError", c.pattern, err)
			continue
		}
		if pe.Pos != c.pos || !strings.Contains(pe.Msg, "anchor "+c.anchor) {
			t.Errorf("Parse(%q): %v, want anchor %s at offset %d", c.pattern, err, c.anchor, c.pos)
		}
	}
	for _, pat := range []string{`^abc`, `abc$`, `^abc$`, `(^a)|(^b)`, `(a$|b$)`, `^(ab|cd)$`, `^`, `^$`, `(?i)^abc`} {
		n, err := Parse(pat, 0)
		if err != nil {
			t.Errorf("Parse(%q): %v", pat, err)
			continue
		}
		stripped, _, _ := StripAnchors(n)
		if strings.ContainsAny(stripped.String(), "^$") {
			t.Errorf("StripAnchors(%q) left an anchor: %s", pat, stripped)
		}
	}
}

func TestRoundTripString(t *testing.T) {
	patterns := []string{
		"a", "ab", "a|b", "(ab)*", "[0-4]{5}[5-9]{5}", `\d+\.\d+`,
		"(a|bc)*d?", "[^a-z]+", `GET /[a-z]{1,8}`, "a{2,}b{3,7}",
	}
	for _, pat := range patterns {
		n1 := MustParse(pat, 0)
		s := n1.String()
		n2, err := Parse(s, 0)
		if err != nil {
			t.Errorf("reparse of %q → %q failed: %v", pat, s, err)
			continue
		}
		if n1.Dump() != n2.Dump() {
			t.Errorf("round trip changed %q: %s vs %s", pat, n1.Dump(), n2.Dump())
		}
	}
}

func TestCharSetOps(t *testing.T) {
	var s CharSet
	s.AddRange('0', '4')
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	if b, ok := s.Min(); !ok || b != '0' {
		t.Errorf("Min = %q %v", b, ok)
	}
	if got := s.Bytes(); string(got) != "01234" {
		t.Errorf("Bytes = %q", got)
	}
	r := s.Ranges()
	if len(r) != 1 || r[0] != [2]byte{'0', '4'} {
		t.Errorf("Ranges = %v", r)
	}
	s.Negate()
	if s.Len() != 251 || s.Contains('3') || !s.Contains('9') {
		t.Errorf("negate wrong: len=%d", s.Len())
	}
	if AnyByte().Len() != 256 {
		t.Error("AnyByte")
	}
	if _, ok := (CharSet{}).Min(); ok {
		t.Error("empty Min should report !ok")
	}
	if _, ok := (CharSet{}).SingleByte(); ok {
		t.Error("empty SingleByte should report !ok")
	}
	if b, ok := MustParse("x", 0).Set.SingleByte(); !ok || b != 'x' {
		t.Error("SingleByte(x)")
	}
}

func TestCharSetString(t *testing.T) {
	cases := []struct {
		build func() CharSet
		want  string
	}{
		{func() CharSet { return Digit() }, `\d`},
		{func() CharSet { return AnyByte() }, `[\x00-\xff]`},
		{func() CharSet { return AnyNoNL() }, "."},
		{func() CharSet { var s CharSet; s.AddByte('a'); return s }, "a"},
		{func() CharSet { var s CharSet; s.AddByte('\n'); return s }, `\n`},
		{func() CharSet { var s CharSet; s.AddRange('a', 'c'); s.AddByte('z'); return s }, "[a-cz]"},
	}
	for _, c := range cases {
		if got := c.build().String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestParseDeepNesting(t *testing.T) {
	pat := strings.Repeat("(", 600) + "a" + strings.Repeat(")", 600)
	if _, err := Parse(pat, 0); err == nil {
		t.Error("expected depth error")
	}
	pat = strings.Repeat("(", 100) + "a" + strings.Repeat(")", 100)
	if _, err := Parse(pat, 0); err != nil {
		t.Errorf("depth 100 should parse: %v", err)
	}
}

func TestPaperPatternsParse(t *testing.T) {
	// Every pattern that appears in the paper must parse.
	paper := []string{
		"(ab)*",                      // Example 1
		"([0-4]{5}[5-9]{5})*",        // Fig. 6
		"([0-4]{50}[5-9]{50})*",      // Fig. 7
		"([0-4]{500}[5-9]{500})*",    // Fig. 8
		"([0-4]{500}[5-9]{500})*|a*", // Fig. 9
		"(([02468][13579]){5})*",     // Fig. 10
		".*(T.*Y.*P.*E.*S)",          // Sect. VI-A over-cube family
		"[ap]*[al][alp]{3}",          // Example 3 (n=5)
	}
	for _, pat := range paper {
		if _, err := Parse(pat, 0); err != nil {
			t.Errorf("paper pattern %q failed: %v", pat, err)
		}
	}
}
