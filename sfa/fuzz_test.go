package sfa

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/syntax"
)

// FuzzMatch feeds arbitrary (pattern, input) pairs through the
// multi-pattern path: the fuzzed pattern joins two fixed rules in a
// RuleSet, and the combined automaton's Scan must agree rule-for-rule
// with the isolated per-rule engines — and, for the fuzzed rule itself,
// with the Brzozowski-derivative oracle. The input repeated past 4 KiB
// must then give the p = 2 set, whose whole-input shards walk it in two
// chunks from unknown starts (its first such scan derives their D-SFAs'
// mapping vectors), the mask of a p = 1 twin. The same rules are then
// compiled for substring search, where the literal prefilter arms and
// the fixed rules land in window shards, and scanned and streamed with
// the block driver forced through the arm schedule the arms byte spells
// (bit b%8 set: block b bypasses the cascade and walks the window shards
// whole; its high bits also size the stream's writes): the prefiltered
// set must agree with the isolated engines whichever arm each block
// takes — on the input and on the repetition, which the p = 2 set also
// walks on the whole arm: one window of the whole block, cut into two
// sub-chunks from D's start state and each walked as four overlapped
// quarters by every window shard (three rules plan at most three, one
// short of a group of four). When every shard is a window shard, that
// pass is the only pool work of the scan, so the pool must show it.
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

		// The input repeated past 4 KiB: the combined set is fresh and
		// runs at p = 2, so its scan walks unknown starts and derives the
		// D-SFAs' mapping vectors for the first time. A p = 1 twin walks
		// from known starts only, and must agree.
		if len(in) > 0 {
			long := bytes.Repeat(in, 4096/len(in)+1)
			serial, err := NewRuleSetFromDefs(defs, append(opts, WithThreads(1))...)
			if err != nil {
				t.Fatal(err)
			}
			want := serial.MatchMask(long, make([]uint64, serial.MaskWords()))
			if m := combined.MatchMask(long, make([]uint64, combined.MaskWords())); !reflect.DeepEqual(m, want) {
				t.Fatalf("pattern %q input %q ×%d: p = 2 mask %x, p = 1 %x", pattern, input, len(long)/len(in), m, want)
			}
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
		if len(in) > 0 {
			long := bytes.Repeat(in, 4096/len(in)+1)
			wantLong := oracle.MatchMask(long, make([]uint64, oracle.MaskWords()))
			if m := searched.MatchMask(long, make([]uint64, searched.MaskWords())); !reflect.DeepEqual(m, wantLong) {
				t.Fatalf("pattern %q input %q ×%d arms %08b: search mask %x, isolated %x", pattern, input, len(long)/len(in), arms, m, wantLong)
			}
			searched.set.ForceArm(func(int64) bool { return true })
			tasks := func() int64 { st := engine.DefaultPool().Stats(); return st.Submitted + st.Inline }
			before := tasks()
			if m := searched.MatchMask(long, make([]uint64, searched.MaskWords())); !reflect.DeepEqual(m, wantLong) {
				t.Fatalf("pattern %q input %q ×%d, whole arm: search mask %x, isolated %x", pattern, input, len(long)/len(in), m, wantLong)
			}
			if pf := searched.PrefilterStats(); pf.WindowShards == searched.NumShards() && tasks() == before {
				t.Fatalf("pattern %q input %q ×%d: %d window shards walked a %d-byte window at p = 2 without cutting it", pattern, input, len(long)/len(in), pf.WindowShards, len(long))
			}
		}
	})
}

// FuzzEngineAgreement feeds arbitrary (pattern, input) pairs through the
// compile pipeline; whenever the pattern compiles, the default SFA engine
// must agree with the Brzozowski-derivative oracle — an implementation
// that shares only the parser with it. The engine's two walks must agree
// too: MatchMask, which walks the DFA's own table from its start state,
// against Match's D-SFA walk, on the input and on the input repeated past
// the 4 KiB threshold, where the p = 2 MatchMask walks the D-SFA in two
// chunks and a p = 1 twin still walks the DFA. The lazy engine must agree
// on both inputs, at its default cap and in a twin capped at 3 states;
// past 4 KiB its p = 2 chunks are walked in parallel and composed
// blockwise. The long inputs are judged by the DFA walk, not by
// derivatives, whose terms can grow with the input (".*.*00" takes
// seconds per kilobyte). A 4 KiB shuffle of the input's bytes reaches
// more states than the repetition does, so the capped twin crosses
// evictions.
func FuzzEngineAgreement(f *testing.F) {
	f.Add("(ab)*", "abab")
	f.Add("([0-4]{2}[5-9]{2})*", "0055")
	f.Add("a|bc+", "bcc")
	f.Add("[a-c]{1,3}", "abc")
	f.Add("[ab]*a[ab]{6}", "abbabaaab")
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
		m := re.matcher.(*engine.MultiSFA)
		dst := make([]uint64, 1)
		if known := m.MatchMask([]byte(input), dst)[0] != 0; known != want {
			t.Fatalf("pattern %q input %q: known-start walk=%v derivatives=%v",
				pattern, input, known, want)
		}
		long := bytes.Repeat([]byte(input+"a"), 4200/(len(input)+1)+1)
		one := engine.NewSFAParallel(re.dsfa, 1, engine.ReduceSequential)
		known, split := one.MatchMask(long, dst)[0] != 0, m.MatchMask(long, dst)[0] != 0
		if sfaWalk := m.Match(long); known != split || known != sfaWalk {
			t.Fatalf("pattern %q input %q repeated to %d bytes: known-start walk=%v p=2 D-SFA=%v Match=%v",
				pattern, input, len(long), known, split, sfaWalk)
		}
		lazy, err := Compile(pattern, WithEngine(EngineLazySFA), WithDFACap(500), WithThreads(2))
		if err != nil {
			t.Fatalf("pattern %q: the SFA engine compiled, the lazy one did not: %v", pattern, err)
		}
		capped, err := engine.NewSFALazy(lazy.dfa, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		alphabet := input + "a"
		r := rand.New(rand.NewSource(int64(len(input))))
		mixed := make([]byte, 4200)
		for i := range mixed {
			mixed[i] = alphabet[r.Intn(len(alphabet))]
		}
		wantMixed := one.MatchMask(mixed, dst)[0] != 0
		for _, e := range []engine.Matcher{lazy.matcher, capped} {
			if got := e.Match([]byte(input)); got != want {
				t.Fatalf("pattern %q input %q: %s=%v derivatives=%v", pattern, input, e.Name(), got, want)
			}
			if got := e.Match(long); got != known {
				t.Fatalf("pattern %q input %q repeated to %d bytes: %s=%v DFA=%v",
					pattern, input, len(long), e.Name(), got, known)
			}
			if got := e.Match(mixed); got != wantMixed {
				t.Fatalf("pattern %q input %q shuffled to %d bytes: %s=%v DFA=%v",
					pattern, input, len(mixed), e.Name(), got, wantMixed)
			}
		}
	})
}
