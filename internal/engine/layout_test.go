package engine

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/syntax"
)

func TestResolveLayout(t *testing.T) {
	cases := []struct {
		req  TableLayout
		n    int
		want TableLayout
	}{
		{LayoutAuto, 1, LayoutU8},
		{LayoutAuto, 256, LayoutU8},
		{LayoutAuto, 257, LayoutU16},
		{LayoutAuto, 1 << 16, LayoutU16},
		{LayoutAuto, 1<<16 + 1, LayoutI32},
		{LayoutU8, 257, LayoutU16}, // widened to fit
		{LayoutU8, 1 << 20, LayoutI32},
		{LayoutU16, 1 << 20, LayoutI32},
		{LayoutU16, 100, LayoutU16}, // explicit request honoured
		{LayoutI32, 10, LayoutI32},
		{LayoutClass, 1 << 20, LayoutClass},
	}
	for _, c := range cases {
		if got := resolveLayout(c.req, c.n); got != c.want {
			t.Errorf("resolveLayout(%v, %d) = %v, want %v", c.req, c.n, got, c.want)
		}
	}
}

func TestParseLayoutRoundTrip(t *testing.T) {
	for _, l := range []TableLayout{LayoutAuto, LayoutU8, LayoutU16, LayoutI32, LayoutClass} {
		got, err := ParseLayout(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLayout(%q) = %v, %v", l.String(), got, err)
		}
	}
	if _, err := ParseLayout("u64"); err == nil {
		t.Error("ParseLayout accepted u64")
	}
}

// TestLayoutsAndPoolingAgreeWithOracle is the satellite cross-check: all
// table layouts, pooled and spawning dispatch, against the NFA bitset
// oracle on randomized inputs and thread counts including 1, 2, 7, 64 and
// counts exceeding the input length.
func TestLayoutsAndPoolingAgreeWithOracle(t *testing.T) {
	patterns := []string{
		"(ab)*",
		"(a|b)*abb",
		"([0-4]{2}[5-9]{2})*",
		"a+(b|c)*a?",
		"([ab]{3}c)*",
		"(a|bc)*d?",
	}
	layouts := []TableLayout{LayoutAuto, LayoutU8, LayoutU16, LayoutI32, LayoutClass}
	threadCounts := []int{1, 2, 7, 64}
	r := rand.New(rand.NewSource(1207))

	for _, pat := range patterns {
		node := syntax.MustParse(pat, 0)
		oracle, err := NewNFASim(node)
		if err != nil {
			t.Fatal(err)
		}
		d := dfa.MustCompilePattern(pat)
		s, err := core.BuildDSFA(d, 0)
		if err != nil {
			t.Fatal(err)
		}

		// Inputs: random words over a small alphabet, several shorter
		// than the largest thread count so empty chunks are exercised.
		inputs := make([][]byte, 0, 40)
		for i := 0; i < 40; i++ {
			w := make([]byte, r.Intn(120))
			for j := range w {
				w[j] = byte('a' + r.Intn(4))
			}
			if i%4 == 0 {
				w = w[:min(len(w), r.Intn(8))] // force len(text) < threads at p=64
			}
			inputs = append(inputs, w)
		}

		for _, p := range threadCounts {
			for _, layout := range layouts {
				for _, spawn := range []bool{false, true} {
					opts := []Option{WithLayout(layout)}
					if spawn {
						opts = append(opts, WithSpawn())
					}
					ms := []Matcher{
						NewSFAParallel(s, p, ReduceSequential, opts...),
						NewSFAParallel(s, p, ReduceTree, opts...),
						NewDFASpeculative(d, p, ReduceTree, opts...),
					}
					for _, in := range inputs {
						want := oracle.Match(in)
						for _, m := range ms {
							if got := m.Match(in); got != want {
								t.Fatalf("pattern %q input %q p=%d: %s = %v, oracle = %v",
									pat, in, p, m.Name(), got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestWidthTablesMatchWideTable checks the narrow tables entry-for-entry
// against the int32 layout and the class-indexed walk.
func TestWidthTablesMatchWideTable(t *testing.T) {
	for _, pat := range []string{"(ab)*", "([0-4]{3}[5-9]{3})*", "(a|b)*abb"} {
		d := dfa.MustCompilePattern(pat)
		s, err := core.BuildDSFA(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		wide := core.DSFATable256[int32](s)
		if core.FitsU8(s.NumStates) {
			narrow := core.DSFATable256[uint8](s)
			for i := range wide {
				if int32(narrow[i]) != wide[i] {
					t.Fatalf("%s: u8 table diverges at %d", pat, i)
				}
			}
		}
		narrow16 := core.DSFATable256[uint16](s)
		for i := range wide {
			if int32(narrow16[i]) != wide[i] {
				t.Fatalf("%s: u16 table diverges at %d", pat, i)
			}
		}
		for q := int32(0); q < int32(s.NumStates); q++ {
			for b := 0; b < 256; b++ {
				if wide[int(q)<<8|b] != s.NextByte(q, byte(b)) {
					t.Fatalf("%s: table disagrees with NextByte at (%d, %d)", pat, q, b)
				}
			}
		}
	}
}
