package prefilter

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/syntax"
	"repro/internal/textgen"
)

// naiveHits is the matcher oracle: quadratic scan for every literal.
func naiveHits(lits []string, data []byte) []Hit {
	var out []Hit
	for id, l := range lits {
		for p := 0; p+len(l) <= len(data); p++ {
			if string(data[p:p+len(l)]) == l {
				out = append(out, Hit{Lit: id, Pos: p})
			}
		}
	}
	return out
}

func cmpHits(a, b Hit) int {
	if a.Pos != b.Pos {
		return a.Pos - b.Pos
	}
	return a.Lit - b.Lit
}

// checkHits runs the matcher over data and compares with the oracle:
// the same hits, reported ascending by position.
func checkHits(t *testing.T, m *Matcher, data []byte) {
	t.Helper()
	got := m.AppendHits(nil, data)
	if !slices.IsSortedFunc(got, func(a, b Hit) int { return a.Pos - b.Pos }) {
		t.Fatalf("stage %s, lits %q, data %q: positions not ascending: %v", m.Stage(), m.Lits(), data, got)
	}
	want := naiveHits(m.Lits(), data)
	slices.SortFunc(got, cmpHits)
	slices.SortFunc(want, cmpHits)
	if !slices.Equal(got, want) {
		t.Fatalf("stage %s, lits %q, data %q:\n got %v\nwant %v", m.Stage(), m.Lits(), data, got, want)
	}
}

func randWord(r *rand.Rand, alphabet []byte, n int) []byte {
	w := make([]byte, n)
	for i := range w {
		w[i] = alphabet[r.Intn(len(alphabet))]
	}
	return w
}

// caseVariants returns every ASCII-case spelling of word.
func caseVariants(word []byte) []string {
	out := []string{""}
	for _, c := range word {
		spell := []byte{c}
		if lo := c | 0x20; 'a' <= lo && lo <= 'z' {
			spell = []byte{lo, lo &^ 0x20}
		}
		var next []string
		for _, p := range out {
			for _, s := range spell {
				next = append(next, p+string([]byte{s}))
			}
		}
		out = next
	}
	return out
}

// litShape generates literal sets of one shape over alphabet, possibly
// with duplicates.
type litShape struct {
	name string
	gen  func(r *rand.Rand, alphabet []byte) []string
}

// matcherShapes are the shapes the filter treats differently: window
// length, bucket sharing, the one-literal shortcut (columnShape adds
// the anchor column).
var matcherShapes = []litShape{
	{"lengths 1-16", func(r *rand.Rand, al []byte) []string {
		lits := make([]string, 1+r.Intn(12))
		for i := range lits {
			lits[i] = string(randWord(r, al, 1+r.Intn(16)))
		}
		return lits
	}},
	{"shared heads", func(r *rand.Rand, al []byte) []string {
		var lits []string
		for h := 1 + r.Intn(4); h > 0; h-- {
			head := randWord(r, al, 4)
			for k := 1 + r.Intn(5); k > 0; k-- {
				lits = append(lits, string(head)+string(randWord(r, al, r.Intn(8))))
			}
		}
		return lits
	}},
	{"case families", func(r *rand.Rand, al []byte) []string {
		letters := slices.DeleteFunc(slices.Clone(al), func(c byte) bool { return c|0x20 < 'a' || c|0x20 > 'z' })
		var lits []string
		for f := 1 + r.Intn(3); f > 0; f-- {
			lits = append(lits, caseVariants(randWord(r, letters, 2+r.Intn(5)))...)
		}
		return lits
	}},
	{"over 64 heads", func(r *rand.Rand, al []byte) []string {
		lits := make([]string, 100+r.Intn(200))
		for i := range lits {
			lits[i] = string(randWord(r, al, 4+r.Intn(6)))
		}
		return lits
	}},
	{"one literal", func(r *rand.Rand, al []byte) []string {
		return []string{string(randWord(r, al, 1+r.Intn(16)))}
	}},
	{"all 1-byte", func(r *rand.Rand, al []byte) []string {
		lits := make([]string, 1+r.Intn(12))
		for i := range lits {
			lits[i] = string(randWord(r, al, 1))
		}
		return lits
	}},
	{"1-byte and long", func(r *rand.Rand, al []byte) []string {
		lits := []string{string(randWord(r, al, 1))}
		for k := 1 + r.Intn(6); k > 0; k-- {
			lits = append(lits, string(randWord(r, al, 1+r.Intn(12))))
		}
		return lits
	}},
}

// columnShape fixes one byte at offset col of every literal, the shape
// that selects the anchor sweep; col < 0 leaves every column mixed.
func columnShape(col int) func(r *rand.Rand, alphabet []byte) []string {
	return func(r *rand.Rand, al []byte) []string {
		c := al[r.Intn(len(al))]
		lits := make([]string, 2+r.Intn(40))
		for i := range lits {
			w := randWord(r, al, 4+r.Intn(5))
			if col >= 0 {
				w[col] = c
			}
			lits[i] = string(w)
		}
		return lits
	}
}

func fixedLits(lits ...string) func(*rand.Rand, []byte) []string {
	return func(*rand.Rand, []byte) []string { return lits }
}

func dedupLits(lits []string) []string {
	var out []string
	for _, l := range lits {
		if l != "" && !slices.Contains(out, l) {
			out = append(out, l)
		}
	}
	return out
}

// saltedData draws up to 300 bytes over alphabet — the first eight
// trials 0 to 7 bytes, shorter than any window or literal — and plants
// up to five literals in them: anywhere (so they overlap), touching the
// start, touching the end, and cut short by it.
func saltedData(r *rand.Rand, alphabet []byte, lits []string, trial int) []byte {
	n := r.Intn(300)
	if trial < 8 {
		n = trial
	}
	data := randWord(r, alphabet, n)
	for k := r.Intn(6); k > 0 && n > 0; k-- {
		l := lits[r.Intn(len(lits))]
		switch r.Intn(4) {
		case 0:
			copy(data, l)
		case 1:
			copy(data[max(0, n-len(l)):], l)
		case 2:
			copy(data[max(0, n-len(l)+1):], l)
		default:
			copy(data[r.Intn(n):], l)
		}
	}
	return data
}

// TestMatcherOracle is the randomized differential test of the filter
// against the naive scan: every literal-set shape, over 2-, 16- and
// 256-letter alphabets, data from empty to a few hundred bytes salted
// with planted literals — overlapping, at both edges, and cut short by
// the end of the input.
func TestMatcherOracle(t *testing.T) {
	shapes := matcherShapes
	for _, col := range []int{0, 1, 3, -1} {
		shapes = append(shapes, litShape{fmt.Sprintf("column %d", col), columnShape(col)})
	}
	// The fixed sets the five stages this filter replaced were tested on,
	// each under its stage's name: one mechanism serves all their shapes.
	for _, c := range []litShape{
		{name: "memchr", gen: fixedLits("\x07")},
		{name: "byte-table few", gen: fixedLits("\x01", "\x02", "\x03")},
		{name: "byte-table many", gen: fixedLits("\x01", "\x02", "\x03", "\x04", "\x05", "\x06", "\x07", "\x08", "\x0b", "\x0c")},
		{name: "bmh", gen: fixedLits("needle")},
		{name: "shift", gen: fixedLits("needle", "haystack", "aa", "aba", "ndl")},
		{name: "aho-corasick", gen: fixedLits("needle", "e", "dle", "\x07", "nee")},
	} {
		shapes = append(shapes, c)
	}
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	alphabets := [][]byte{[]byte("aA"), []byte("abcdefghABCDEFGH"), all}
	stages := map[string]int{}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for _, al := range alphabets {
				t.Run(fmt.Sprintf("letters=%d", len(al)), func(t *testing.T) {
					r := rand.New(rand.NewSource(int64(len(al))))
					for set := 0; set < 20; set++ {
						m := NewMatcher(dedupLits(sh.gen(r, al)))
						stages[m.Stage()]++
						for trial := 0; trial < 25; trial++ {
							checkHits(t, m, saltedData(r, al, m.Lits(), trial))
						}
					}
				})
			}
		})
	}
	for _, st := range []string{"index", "anchor", "mask"} {
		if stages[st] == 0 {
			t.Errorf("no literal set selected stage %s: %v", st, stages)
		}
	}
}

// TestMatcherZeroAlloc: with dst pre-sized, no sweep allocates.
func TestMatcherZeroAlloc(t *testing.T) {
	data := gapText(1<<14, 2)
	for _, lits := range [][]string{{"Host: "}, gapLits(), idsLits(t)} {
		m := NewMatcher(lits)
		dst := m.AppendHits(nil, data)
		if len(dst) == 0 {
			t.Fatalf("stage %s: no hits in the probe text", m.Stage())
		}
		if a := testing.AllocsPerRun(20, func() { dst = m.AppendHits(dst[:0], data) }); a != 0 {
			t.Errorf("stage %s: %v allocs per AppendHits, want 0", m.Stage(), a)
		}
	}
}

// TestMatcherManyLiterals: a census past 32 767 literals (about 512
// case-insensitive rules at maxLits each) must keep its ids — they were
// int16 once, and the first hit on a high id indexed out of range.
func TestMatcherManyLiterals(t *testing.T) {
	lits := make([]string, 40000)
	for i := range lits {
		lits[i] = fmt.Sprintf("k%05d", i)
	}
	m := NewMatcher(lits)
	got := m.AppendHits(nil, []byte("xx k39999 yy k00000"))
	want := []Hit{{Lit: 39999, Pos: 3}, {Lit: 0, Pos: 13}}
	if !slices.Equal(got, want) {
		t.Fatalf("hits %v, want %v", got, want)
	}
}

// FuzzMatcher feeds the oracle comparison literal sets and data cut
// from the fuzz bytes: the literals are the newline-separated fields of
// the first argument.
func FuzzMatcher(f *testing.F) {
	f.Add([]byte("needle\nhaystack\naa\naba\nndl"), []byte("a needle in the haystack: aabaa ndl"))
	f.Add([]byte("q00\nq01\nq3f"), []byte("GET /?q=1 q00abcq3f q0"))
	f.Add([]byte("e\nneedle\ndle\n\x07"), []byte("needle\x07e"))
	f.Add([]byte("select\nSELECT\nSeLeCt\nunion"), []byte("SELECT 1 union select 2 SeLeC"))
	f.Add([]byte("Host: "), []byte("Host: Host: Hos"))
	f.Fuzz(func(t *testing.T, litBytes, data []byte) {
		lits := dedupLits(strings.Split(string(litBytes), "\n"))
		if len(lits) == 0 {
			return
		}
		checkHits(t, NewMatcher(lits), data)
	})
}

// The matcher's own benchmarks: the two literal censuses the repo's
// benchmark (bench/, which this module cannot import) arms, each over a
// text where hits are rare and one where most lines carry one.

// gapLits is gap64's census: 64 three-byte literals sharing their head
// byte.
func gapLits() []string {
	lits := make([]string, 64)
	for i := range lits {
		lits[i] = fmt.Sprintf("q%02x", i)
	}
	return lits
}

// idsLits is the census of ids16's window rules: 85 literals of 4–16
// bytes, 72 of them the case variants of five keywords.
func idsLits(tb testing.TB) []string {
	rules := []struct {
		pattern string
		flags   syntax.Flags
	}{
		{`Host\x3a [a-z0-9\.-]{4,40}\x0d\x0a`, 0},
		{`Content-Length\x3a \d{7,}`, 0},
		{`Authorization\x3a Basic [A-Za-z0-9=\+/]{4,128}`, 0},
		{`X-Forwarded-For\x3a [0-9\.,' ]{1,64}`, 0},
		{`(GET|POST|HEAD|PUT|DELETE|TRACE)\x20`, 0},
		{`(admin|root|guest)\x3a\x3a`, 0},
		{`(cmd|command)\.exe`, syntax.FoldCase},
		{`(select|union|insert|update)\x20`, syntax.FoldCase},
	}
	var lits []string
	for _, r := range rules {
		node, err := syntax.Parse(r.pattern, r.flags)
		if err != nil {
			tb.Fatalf("parse %q: %v", r.pattern, err)
		}
		lits = append(lits, Extract(node, true).Lits...)
	}
	return lits
}

// gapText is textgen's HTTP-like traffic — every line holds an ids
// keyword, a GET line a stray 'q' — with a gap-rule token " qNN" and
// some filler appended to one line in every tokenEvery.
func gapText(size, tokenEvery int) []byte {
	traffic, _ := textgen.Traffic{}.Generate(size, 1)
	r := rand.New(rand.NewSource(1))
	out := make([]byte, 0, size+size/4)
	for _, line := range textgen.Lines(traffic) {
		out = append(out, line...)
		if r.Intn(tokenEvery) == 0 {
			out = fmt.Appendf(out, " q%02x%s", r.Intn(64), "abcdefghijklmnop"[:r.Intn(16)])
		}
		out = append(out, '\n')
	}
	return out[:size]
}

func benchMatcher(b *testing.B, lits []string, data []byte) {
	m := NewMatcher(lits)
	hits := m.AppendHits(nil, data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits = m.AppendHits(hits[:0], data)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(data)), "ns/B")
	b.ReportMetric(float64(len(hits))/float64(len(data))*(1<<20), "hits/MiB")
}

const benchTextSize = 1 << 20

func BenchmarkMatcher_gap_sparse(b *testing.B) {
	benchMatcher(b, gapLits(), gapText(benchTextSize, 64))
}

func BenchmarkMatcher_gap_dense(b *testing.B) {
	benchMatcher(b, gapLits(), gapText(benchTextSize, 2))
}

func BenchmarkMatcher_ids_sparse(b *testing.B) {
	// Base64-like frames: the literals almost never occur, most of their
	// letters do.
	data, _ := textgen.Payload{}.Generate(benchTextSize, 1)
	benchMatcher(b, idsLits(b), data)
}

func BenchmarkMatcher_ids_dense(b *testing.B) {
	data, _ := textgen.Traffic{}.Generate(benchTextSize, 1)
	benchMatcher(b, idsLits(b), data)
}
