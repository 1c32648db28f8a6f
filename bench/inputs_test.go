package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"

	"repro/internal/serve"
	"repro/sfa"
)

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// The inputs are the benchmark: a changed rule file or generator makes
// numbers incomparable with every earlier run. Changing a pin here is a
// change of the benchmark and needs a re-measured baseline.
func TestRuleFilesPinned(t *testing.T) {
	for _, c := range []struct {
		name, sha string
		rules     int
		folded    []string // rules that carry the /i flag
	}{
		{"ids16", "fdf0a64e8e83cc7ce62597811f3d21f3bd7a38e1bd52412a609b0f0defa34460", 16, []string{"r004", "r016", "r017"}},
		{"ids12", "78f209d2b55aa12c37bbc04dac234687cfe6cf4b9bf5dc31872c60b6ef1748b3", 12, []string{"r004"}},
		{"gap64", "9b919094d0104d10c74193607c7c5eb38521a65f14f0ec67054c14a16943797a", 64, nil},
	} {
		raw := ruleFile(c.name)
		if got := sha(raw); got != c.sha {
			t.Errorf("%s.rules: sha256 %s, pinned %s", c.name, got, c.sha)
		}
		defs := ruleDefs(c.name)
		if len(defs) != c.rules {
			t.Errorf("%s: %d rules, want %d", c.name, len(defs), c.rules)
		}
		var folded []string
		for _, d := range defs {
			if d.Flags&sfa.FoldCase != 0 {
				folded = append(folded, d.Name)
			}
		}
		if !slices.Equal(folded, c.folded) {
			t.Errorf("%s: case-folded rules %v, want %v", c.name, folded, c.folded)
		}
		// The file must say exactly what the parser reads back: format the
		// parsed defs and parse them again.
		text, err := serve.FormatRules(defs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		again, err := serve.ParseRules(bytes.NewReader([]byte(text)))
		if err != nil || !slices.Equal(again, defs) {
			t.Errorf("%s: defs do not survive FormatRules/ParseRules: %v", c.name, err)
		}
		// And compile: a rule file the program rejects benchmarks nothing.
		if _, err := sfa.NewRuleSetFromDefs(defs, sfa.WithSearch(), sfa.WithIsolatedRules()); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestCorporaPinned(t *testing.T) {
	for _, c := range []struct {
		gen     func(int, int64) *corpus
		size    int
		sha     string
		planted int
	}{
		{genTraffic, corpusBytes, "5dd16270f9b6ab4984fafc971fa73b7c50b7fccb5e703bcb94705770ab75a8f4", 627},
		{genPayload, corpusBytes, "b5a7cf5ccfeac90b946fd43ece7fa5429a5b4e4d7f431285607c7d00c5817c6e", 162},
		{genGapmix, gapmixBytes, "23eb86559f7b240d31c9a5e9c8e3b28f29dba23411cbdf8667344d2f1a40ead0", 5894},
	} {
		got := c.gen(c.size, 1)
		if s := sha(got.Data); s != c.sha {
			t.Errorf("%s at seed 1: sha256 %s, pinned %s", got.Name, s, c.sha)
		}
		if len(got.Planted) != c.planted {
			t.Errorf("%s at seed 1: %d planted lines, want %d", got.Name, len(got.Planted), c.planted)
		}
		if again := c.gen(c.size, 1); !bytes.Equal(again.Data, got.Data) {
			t.Errorf("%s: the same seed gave different bytes", got.Name)
		}
		if other := c.gen(c.size, 2); bytes.Equal(other.Data, got.Data) {
			t.Errorf("%s: seeds 1 and 2 gave the same bytes", got.Name)
		}
		for _, p := range got.Planted[:min(50, len(got.Planted))] {
			if p.Off < 0 || p.End > len(got.Data) || got.Data[p.End-1] != '\n' || (p.Off > 0 && got.Data[p.Off-1] != '\n') {
				t.Fatalf("%s: planted span [%d,%d) is not a whole line", got.Name, p.Off, p.End)
			}
		}
	}
}

func TestSlicesKeepPlantedSpans(t *testing.T) {
	c := genTraffic(1<<20, 1)
	for _, s := range c.slices(64, 64<<10, 9) {
		if len(s.Data) != 64<<10 {
			t.Fatalf("slice of %d bytes", len(s.Data))
		}
		for _, p := range s.Planted {
			line := s.Data[p.Off:p.End]
			if !bytes.Contains(line, []byte(attacks[p.Kind])) {
				t.Fatalf("slice %s: span %q does not hold attack %d", s.Name, line, p.Kind)
			}
		}
	}
}
