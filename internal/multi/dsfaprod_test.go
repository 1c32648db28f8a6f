package multi

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/engine"
	"repro/internal/regen"
	"repro/internal/syntax"
)

// The tuple-interned construction's correctness contract: byte-identical
// MatchMask and streaming verdicts versus core.BuildDSFA's vector-
// interned construction over the same product DFA. State counts are
// deliberately NOT compared — tuple identity over-approximates vector
// identity, so the tuple automaton may be larger; only verdicts are
// gated.

// checkMaskAgreement scans every input through both sets and demands
// word-identical global masks, plus chunked-stream agreement with the
// one-shot verdict on both.
func checkMaskAgreement(t *testing.T, a, b *Set, inputs [][]byte, r *rand.Rand) {
	t.Helper()
	da := make([]uint64, a.Words())
	db := make([]uint64, b.Words())
	sa, sb := a.NewStream(), b.NewStream()
	ma := make([]uint64, a.Words())
	mb := make([]uint64, b.Words())
	for _, in := range inputs {
		ga := a.Scan(in, 0, da)
		gb := b.Scan(in, 0, db)
		if !slices.Equal(ga, gb) {
			t.Fatalf("input %q: mask %x != %x (shards %d vs %d)",
				in, ga, gb, a.NumShards(), b.NumShards())
		}
		// Streaming: the same input in random chunks must reproduce the
		// one-shot mask on both sets.
		sa.Reset()
		sb.Reset()
		for lo := 0; lo < len(in); {
			hi := lo + 1 + r.Intn(len(in)-lo)
			sa.Write(in[lo:hi])
			sb.Write(in[lo:hi])
			lo = hi
		}
		if sma, smb := sa.Mask(ma), sb.Mask(mb); !slices.Equal(sma, ga) || !slices.Equal(smb, ga) {
			t.Fatalf("input %q: stream masks %x/%x != one-shot %x", in, sma, smb, ga)
		}
	}
}

// bothEngines builds the minimized product DFA of ds and its combined
// D-SFA both ways — tuple-interned over the rules' own D-SFAs, and
// vector-interned by core.BuildDSFA — as two engines over one mask table.
func bothEngines(t *testing.T, ds []*dfa.DFA) (tuple, vector *engine.MultiSFA) {
	t.Helper()
	comps := make([]*core.DSFA, len(ds))
	for i, d := range ds {
		s, err := core.BuildDSFA(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		comps[i] = s
	}
	d, masks, err := productDFA(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	words := maskWords(len(ds))
	d, masks = minimizeMasked(d, masks, words)
	ts, err := tupleDSFA(comps, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := core.BuildDSFA(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	return engine.NewMultiSFA(ts, masks, words, 1), engine.NewMultiSFA(vs, masks, words, 1)
}

// TestTupleVsVectorOracle is the randomized construction oracle:
// generated rule sets × {whole-input, search-bracketed}, asserting that
// the two constructions over the same product DFA give byte-identical
// one-shot and streamed masks, and that the sets built of every shard
// topology — combined, forced shards, one shard per rule — agree with
// each other. The merge pass runs on the force=0 builds whenever the
// plan over-shards, so merged shards are covered too.
func TestTupleVsVectorOracle(t *testing.T) {
	gen := regen.New(regen.Config{Alphabet: "abc", AllowClasses: true, AllowCounts: true}, 41)
	r := rand.New(rand.NewSource(42))
	alpha := []byte("abcx")
	for round := 0; round < 4; round++ {
		nrules := 3 + r.Intn(5)
		patterns := make([]string, nrules)
		for i := range patterns {
			patterns[i] = gen.Pattern()
		}
		inputs := [][]byte{nil, []byte("a"), []byte("abcabc")}
		for i := 0; i < 40; i++ {
			in := make([]byte, r.Intn(40))
			for j := range in {
				in[j] = alpha[r.Intn(len(alpha))]
			}
			inputs = append(inputs, in)
		}
		for _, search := range []bool{false, true} {
			nodes := make([]*syntax.Node, nrules)
			ds := make([]*dfa.DFA, nrules)
			for i, p := range patterns {
				nodes[i] = syntax.MustParse(p, 0)
				if search {
					nodes[i] = syntax.BracketForSearch(nodes[i])
				}
				d, err := dfa.Compile(nodes[i], 0)
				if err != nil {
					t.Fatal(err)
				}
				ds[i] = d
			}
			tuple, vector := bothEngines(t, ds)
			for _, in := range inputs {
				want := vector.MatchMask(in, make([]uint64, vector.Words()))
				if got := tuple.MatchMask(in, make([]uint64, tuple.Words())); !slices.Equal(got, want) {
					t.Fatalf("%q search=%v input %q: tuple mask %x != vector mask %x", patterns, search, in, got, want)
				}
				cur, tmp := make([]int16, tuple.MappingLen()), make([]int16, tuple.MappingLen())
				tuple.InitMapping(cur)
				for lo := 0; lo < len(in); {
					hi := lo + 1 + r.Intn(len(in)-lo)
					cur, tmp = tuple.ComposeChunk(cur, tmp, in[lo:hi])
					lo = hi
				}
				if got := tuple.MatchMaskFrom(cur, make([]uint64, tuple.Words())); !slices.Equal(got, want) {
					t.Fatalf("%q search=%v input %q: streamed tuple mask %x != vector mask %x", patterns, search, in, got, want)
				}
			}
			perRule, err := Compile(nodes, Options{ForceShards: nrules, Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, force := range []int{0, 2} {
				s, err := Compile(nodes, Options{ForceShards: force, Threads: 1})
				if err != nil {
					t.Fatal(err)
				}
				checkMaskAgreement(t, s, perRule, inputs, r)
			}
		}
	}
}

// TestTupleTinyBudgetSplits drives the tuple path through the blow-up
// split-and-retry loop with a tiny budget and demands agreement with the
// unsplit set — the budget errors the tuple path returns must be exactly
// what the split loop expects, or the build would fail outright.
func TestTupleTinyBudgetSplits(t *testing.T) {
	nodes := parseAll(t, testPatterns)
	ds := oracleDFAs(t, testPatterns)
	split, err := Compile(nodes, Options{SFABudget: 12, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if split.NumShards() < 2 {
		t.Fatalf("budget 12 produced %d tuple shards; expected a split", split.NumShards())
	}
	whole, err := Compile(nodes, Options{ForceShards: 1, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	inputs := testInputs()
	checkMaskAgreement(t, split, whole, inputs, rand.New(rand.NewSource(3)))
	checkAgainstOracle(t, split, ds, inputs)
}

// TestTupleDSFABudgetError calls the tuple walker directly and checks an
// overrun reports the same sentinel the planner's isBudgetErr reacts to.
func TestTupleDSFABudgetError(t *testing.T) {
	ds := oracleDFAs(t, testPatterns[:4])
	comps := make([]*core.DSFA, len(ds))
	for i, d := range ds {
		s, err := core.BuildDSFA(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		comps[i] = s
	}
	d, masks, err := productDFA(ds, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, _ = minimizeMasked(d, masks, maskWords(len(ds)))
	full, err := tupleDSFA(comps, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tupleDSFA(comps, d, full.NumStates-1)
	if err == nil || !isBudgetErr(err) {
		t.Fatalf("cap %d: want a budget error, got %v", full.NumStates-1, err)
	}
	// The uncapped tuple automaton must accept exactly like the DFA it
	// wraps (Theorem 2 through the tuple correspondence).
	for _, in := range testInputs() {
		if full.Accepts(in) != d.Accepts(in) {
			t.Fatalf("input %q: tuple D-SFA disagrees with product DFA", in)
		}
	}
	// Tuple identity over-approximates vector identity: never fewer
	// states than the vector-interned automaton over the same DFA.
	vec, err := core.BuildDSFA(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.NumStates < vec.NumStates {
		t.Fatalf("tuple automaton has %d states, vector has %d — tuple interning must be an upper bound",
			full.NumStates, vec.NumStates)
	}
}

// TestEstimateSFASurfacesNonBudgetErrors: a component DFA past the
// int16 construction limit can never build at ANY budget — estimateSFA
// must report the real error, not disguise it as a budget overrun that
// the split path would pointlessly retry.
func TestEstimateSFASurfacesNonBudgetErrors(t *testing.T) {
	bc := oracleDFAs(t, []string{"a"})[0].BC
	huge := dfa.New(core.MaxDFAStates+1, bc)
	_, _, err := estimateSFA(huge, 100)
	if err == nil {
		t.Fatal("want an error for a DFA past MaxDFAStates, got est=budget+1")
	}
	if isBudgetErr(err) {
		t.Fatalf("non-budget failure reported as budget overrun: %v", err)
	}
	// A genuine overrun still reports budget+1 with no error.
	d := oracleDFAs(t, []string{`(ab)*`})[0]
	est, s, err := estimateSFA(d, 1)
	if err != nil || s != nil || est != 2 {
		t.Fatalf("genuine overrun: est=%d s=%v err=%v, want 2/nil/nil", est, s, err)
	}
}

// TestShardCacheBudgetIsolation is the regression test for budget-blind
// cache entries: a shard built and stored under a large SFABudget must
// NOT be served into a build configured with a smaller one — the small
// build must miss, fail its capped attempt, and split.
func TestShardCacheBudgetIsolation(t *testing.T) {
	patterns := testPatterns
	nodes := parseAll(t, patterns)
	keys := make([]string, len(patterns))
	for i, p := range patterns {
		keys[i] = "k\x00" + p
	}
	cache := newMemCache()

	big := Options{Threads: 1, ForceShards: 1, Keys: keys, Cache: cache}
	sBig, err := Compile(nodes, big)
	if err != nil {
		t.Fatal(err)
	}
	if sBig.NumShards() != 1 {
		t.Fatalf("big-budget forced build produced %d shards, want 1", sBig.NumShards())
	}
	combined := sBig.Shards()[0].SFAStates

	// Derive a budget every rule fits alone but the combined shard does
	// not, so the small-budget plan attempts (and must reject) the exact
	// membership the cache holds.
	maxSingle := 0
	for _, d := range oracleDFAs(t, patterns) {
		s, err := core.BuildDSFA(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		if s.NumStates > maxSingle {
			maxSingle = s.NumStates
		}
	}
	small := combined - 1
	if maxSingle > small {
		t.Fatalf("fixture broke: max single-rule D-SFA %d ≥ combined-1 %d", maxSingle, small)
	}

	o := Options{Threads: 1, ForceShards: 1, Keys: keys, Cache: cache, SFABudget: small}
	sSmall, err := Compile(nodes, o)
	if err != nil {
		t.Fatal(err)
	}
	if sSmall.NumShards() < 2 {
		t.Fatalf("small-budget build adopted the big-budget cached shard: %d shard(s) for budget %d (combined needs %d)",
			sSmall.NumShards(), small, combined)
	}
	for _, info := range sSmall.Shards() {
		if len(info.Rules) > 1 && info.SFAStates > small {
			t.Fatalf("multi-rule shard %v has %d states under budget %d", info.Rules, info.SFAStates, small)
		}
	}
	checkAgainstOracle(t, sSmall, oracleDFAs(t, patterns), testInputs())

	// And directly: the cache address must depend on both budgets.
	ks := []string{
		shardCacheKey("m", Options{DFABudget: 1000, SFABudget: 100}),
		shardCacheKey("m", Options{DFABudget: 1000, SFABudget: 200}),
		shardCacheKey("m", Options{DFABudget: 2000, SFABudget: 100}),
	}
	for i := range ks {
		for j := i + 1; j < len(ks); j++ {
			if ks[i] == ks[j] {
				t.Fatalf("shardCacheKey collision between option sets %d and %d: %s", i, j, ks[i])
			}
		}
	}
}

// TestCacheKeysPinned pins the shard-cache and failure-tombstone
// addresses of a fixed membership under the default budgets to the
// strings builds have used since the tuple construction became the
// default, so a cache directory written by an older build still hits.
func TestCacheKeysPinned(t *testing.T) {
	o := Options{}.withDefaults()
	for _, c := range []struct{ name, got, want string }{
		{"ShardKey", ShardKey([]string{"b", "a"}), "cf6ab613e3942391f88ed698557e1680f160bd10e88c6b668c50360c10930e2b"},
		{"shardCacheKey", shardCacheKey("abc", o), "01d63430bc9cbf691ebfa27898c22ff006d12ae3501826d3c51686ce2339f6b0"},
		{"failCacheKey", failCacheKey("abc", o), "8988ad938ce93596b1535e7b04d6e28810996368b2bfdda6fd2d7b667b36c241"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
}

// TestTupleWarmCacheRoundTrip: a tuple-built shard stored in the cache
// decodes and serves on a second build — the codec path is construction-
// strategy-agnostic.
func TestTupleWarmCacheRoundTrip(t *testing.T) {
	nodes := parseAll(t, testPatterns)
	keys := make([]string, len(testPatterns))
	for i, p := range testPatterns {
		keys[i] = "k\x00" + p
	}
	cache := newMemCache()
	o := Options{Threads: 1, Keys: keys, Cache: cache}
	if _, err := Compile(nodes, o); err != nil {
		t.Fatal(err)
	}
	cache.mu.Lock()
	stored := len(cache.blobs)
	cache.mu.Unlock()
	if stored == 0 {
		t.Fatal("no cache entries stored")
	}
	warm, err := Compile(nodes, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range warm.Shards() {
		if info.BuildID&(1<<63) == 0 {
			t.Fatalf("warm shard %v not decoded from cache (BuildID %x)", info.Rules, info.BuildID)
		}
	}
	checkAgainstOracle(t, warm, oracleDFAs(t, testPatterns), testInputs())
}
