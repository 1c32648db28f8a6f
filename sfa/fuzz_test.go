package sfa

import (
	"reflect"
	"testing"

	"repro/internal/syntax"
)

// FuzzMatch feeds arbitrary (pattern, input) pairs through the
// multi-pattern path: the fuzzed pattern joins two fixed rules in a
// RuleSet, and the combined automaton's Scan must agree rule-for-rule
// with the isolated per-rule engines — and, for the fuzzed rule itself,
// with the Brzozowski-derivative oracle. The same rules are then
// compiled for substring search, where the literal prefilter arms and
// the fixed rules land in window shards, and scanned and streamed with
// the block driver forced through the arm schedule the arms byte spells
// (bit b%8 set: block b bypasses the cascade and walks the window shards
// whole; its high bits also size the stream's writes): the prefiltered
// set must agree with the isolated engines whichever arm each block
// takes.
func FuzzMatch(f *testing.F) {
	f.Add("(ab)*", "abab", byte(0))
	f.Add("a[ab]*b", "aabb", byte(0xff))
	f.Add("([0-4]{2}[5-9]{2})*", "0055", byte(0x55))
	f.Add("a|bc+", "bcc", byte(0x0f))
	f.Add("needle[0-9]", "a needle7 in abcab", byte(0xa6))
	f.Fuzz(func(t *testing.T, pattern, input string, arms byte) {
		if len(pattern) > 30 || len(input) > 30 {
			return
		}
		node, err := syntax.Parse(pattern, 0)
		if err != nil {
			return
		}
		if node.NumPositions() > 40 {
			return
		}
		defs := []RuleDef{
			{Name: "fixed-a", Pattern: `(ab)*c?`},
			{Name: "fixed-b", Pattern: `[a-c]{1,4}`},
			{Name: "fuzzed", Pattern: pattern},
		}
		opts := []Option{WithDFACap(500), WithShardStateBudget(4096), WithThreads(2)}
		combined, err := NewRuleSetFromDefs(defs, opts...)
		if err != nil {
			return // the fuzzed rule blew a cap; nothing to compare
		}
		isolated, err := NewRuleSetFromDefs(defs, append(opts, WithIsolatedRules())...)
		if err != nil {
			return
		}
		in := []byte(input)
		got, want := combined.Scan(in, 0), isolated.Scan(in, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pattern %q input %q: combined=%v isolated=%v", pattern, input, got, want)
		}
		fuzzHit := false
		for _, name := range got {
			if name == "fuzzed" {
				fuzzHit = true
			}
		}
		if oracle := syntax.DeriveMatch(node, in); fuzzHit != oracle {
			t.Fatalf("pattern %q input %q: combined=%v derivatives=%v", pattern, input, fuzzHit, oracle)
		}

		// Substring search, prefilter armed, arms forced.
		defs[0].Pattern, defs[1].Pattern = `ab(ab)?c`, `needle[0-9]`
		searched, err := NewRuleSetFromDefs(defs, append(opts, WithSearch())...)
		if err != nil {
			return
		}
		oracle, err := NewRuleSetFromDefs(defs, append(opts, WithSearch(), WithIsolatedRules())...)
		if err != nil {
			return
		}
		searched.set.ForceArm(func(b int64) bool { return arms>>(b%8)&1 == 1 })
		wantMask := oracle.MatchMask(in, make([]uint64, oracle.MaskWords()))
		if m := searched.MatchMask(in, make([]uint64, searched.MaskWords())); !reflect.DeepEqual(m, wantMask) {
			t.Fatalf("pattern %q input %q arms %08b: search mask %x, isolated %x", pattern, input, arms, m, wantMask)
		}
		st, err := searched.NewStream()
		if err != nil {
			t.Fatal(err)
		}
		for w, rest := int(arms>>5)+1, in; len(rest) > 0; rest = rest[min(w, len(rest)):] {
			st.Write(rest[:min(w, len(rest))])
		}
		if m := st.Mask(make([]uint64, searched.MaskWords())); !reflect.DeepEqual(m, wantMask) {
			t.Fatalf("pattern %q input %q arms %08b: streamed mask %x, isolated %x", pattern, input, arms, m, wantMask)
		}
	})
}

// FuzzEngineAgreement feeds arbitrary (pattern, input) pairs through the
// compile pipeline; whenever the pattern compiles, the default SFA engine
// must agree with the Brzozowski-derivative oracle — an implementation
// that shares only the parser with it.
func FuzzEngineAgreement(f *testing.F) {
	f.Add("(ab)*", "abab")
	f.Add("([0-4]{2}[5-9]{2})*", "0055")
	f.Add("a|bc+", "bcc")
	f.Add("[a-c]{1,3}", "abc")
	f.Fuzz(func(t *testing.T, pattern, input string) {
		if len(pattern) > 30 || len(input) > 30 {
			return
		}
		node, err := syntax.Parse(pattern, 0)
		if err != nil {
			return
		}
		if node.NumPositions() > 40 {
			return
		}
		re, err := Compile(pattern, WithDFACap(500), WithSFACap(20_000), WithThreads(2))
		if err != nil {
			return
		}
		got := re.Match([]byte(input))
		want := syntax.DeriveMatch(node, []byte(input))
		if got != want {
			t.Fatalf("pattern %q input %q: engine=%v derivatives=%v",
				pattern, input, got, want)
		}
	})
}
