// Package repro's root benchmark suite: one testing.B benchmark per table
// and figure of the paper, plus the design ablations
// (harness.Config.Ablations). These are the micro-benchmark versions;
// cmd/sfabench regenerates the full human-readable tables and series.
//
// Input size defaults to 8 MiB per benchmark to keep `go test -bench=.`
// wall time reasonable; set SFA_BENCH_MB to scale up (the paper used
// 1024 MiB). Throughput appears as the B/s column via b.SetBytes.
package repro

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/monoid"
	"repro/internal/nfa"
	"repro/internal/snort"
	"repro/internal/syntax"
	"repro/internal/textgen"
	"repro/sfa"
)

// benchMB returns the per-benchmark input size in MiB.
func benchMB() int {
	if v := os.Getenv("SFA_BENCH_MB"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 8
}

// fig8N is the r_n exponent used for the large-table benchmarks.
func fig8N() int {
	if v := os.Getenv("SFA_FIG8_N"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 150
}

// fixture carries the compiled automata and input for one pattern.
type fixture struct {
	d    *dfa.DFA
	s    *core.DSFA
	text []byte
}

var (
	fixMu  sync.Mutex
	fixMap = map[string]*fixture{}
)

// getFixture builds (once) the DFA, D-SFA and an accepted text.
func getFixture(b *testing.B, key string, pattern string, text func() []byte) *fixture {
	b.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	if f, ok := fixMap[key]; ok {
		return f
	}
	d := dfa.MustCompilePattern(pattern)
	s, err := core.BuildDSFA(d, 0)
	if err != nil {
		b.Fatal(err)
	}
	f := &fixture{d: d, s: s, text: text()}
	if !d.Accepts(f.text) {
		b.Fatalf("fixture text for %q not accepted", pattern)
	}
	fixMap[key] = f
	return f
}

func rnFixture(b *testing.B, n int) *fixture {
	return getFixture(b, fmt.Sprintf("rn-%d", n),
		fmt.Sprintf("([0-4]{%d}[5-9]{%d})*", n, n),
		func() []byte { return textgen.RnText(n, benchMB()<<20, 1) })
}

// benchMatcher runs m over text with throughput accounting. allocs/op is
// reported for every engine benchmark: the pooled engines' guardrail is
// 0 allocs/op in steady state.
func benchMatcher(b *testing.B, m engine.Matcher, text []byte, want bool) {
	b.Helper()
	b.SetBytes(int64(len(text)))
	m.Match(text) // warm the context pool so steady state is measured
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Match(text) != want {
			b.Fatal("wrong verdict")
		}
	}
}

// --- Fig. 3: SNORT ruleset study ------------------------------------------

// BenchmarkFig3_RulesetStudy measures the full per-rule pipeline
// (parse → Glushkov → determinize ≤1000 → minimize → D-SFA) over a slice
// of the synthetic corpus; the metric of interest is rules/sec.
func BenchmarkFig3_RulesetStudy(b *testing.B) {
	rules := snort.Generate(150, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rule := range rules {
			node, err := syntax.Parse(rule.Pattern, rule.Flags)
			if err != nil {
				b.Fatal(err)
			}
			m, err := dfa.Compile(node, 4000)
			if err != nil {
				continue // over the cap: skipped, like the paper
			}
			if m.LiveSize() > 1000 {
				continue
			}
			if _, err := core.BuildDSFA(m, 400_000); err != nil {
				continue
			}
		}
	}
	b.ReportMetric(float64(len(rules)*b.N)/b.Elapsed().Seconds(), "rules/s")
}

// --- Figs. 6–9: throughput vs threads --------------------------------------

func benchScale(b *testing.B, f *fixture, threads int) {
	if threads == 1 {
		benchMatcher(b, engine.NewDFASequential(f.d), f.text, true)
		return
	}
	benchMatcher(b, engine.NewSFAParallel(f.s, threads, engine.ReduceSequential), f.text, true)
}

func BenchmarkFig6_R5_Threads1(b *testing.B) { benchScale(b, rnFixture(b, 5), 1) }
func BenchmarkFig6_R5_Threads2(b *testing.B) { benchScale(b, rnFixture(b, 5), 2) }
func BenchmarkFig6_R5_Threads4(b *testing.B) { benchScale(b, rnFixture(b, 5), 4) }
func BenchmarkFig6_R5_Threads8(b *testing.B) { benchScale(b, rnFixture(b, 5), 8) }

func BenchmarkFig7_R50_Threads1(b *testing.B) { benchScale(b, rnFixture(b, 50), 1) }
func BenchmarkFig7_R50_Threads2(b *testing.B) { benchScale(b, rnFixture(b, 50), 2) }
func BenchmarkFig7_R50_Threads4(b *testing.B) { benchScale(b, rnFixture(b, 50), 4) }
func BenchmarkFig7_R50_Threads8(b *testing.B) { benchScale(b, rnFixture(b, 50), 8) }

func BenchmarkFig8_RBig_Threads1(b *testing.B) { benchScale(b, rnFixture(b, fig8N()), 1) }
func BenchmarkFig8_RBig_Threads2(b *testing.B) { benchScale(b, rnFixture(b, fig8N()), 2) }
func BenchmarkFig8_RBig_Threads4(b *testing.B) { benchScale(b, rnFixture(b, fig8N()), 4) }

func unionFixture(b *testing.B) *fixture {
	n := fig8N()
	return getFixture(b, "union-a", fmt.Sprintf("([0-4]{%d}[5-9]{%d})*|a*", n, n),
		func() []byte { return textgen.Repeat('a', benchMB()<<20) })
}

func BenchmarkFig9_UnionAstar_Threads1(b *testing.B) { benchScale(b, unionFixture(b), 1) }
func BenchmarkFig9_UnionAstar_Threads2(b *testing.B) { benchScale(b, unionFixture(b), 2) }
func BenchmarkFig9_UnionAstar_Threads4(b *testing.B) { benchScale(b, unionFixture(b), 4) }

// --- Fig. 10: small-input overhead -----------------------------------------

func fig10Fixture(b *testing.B) *fixture {
	return getFixture(b, "fig10", "(([02468][13579]){5})*",
		func() []byte { return textgen.EvenOddText(1_000_000, 1) })
}

func benchFig10(b *testing.B, kb int, parallel bool) {
	f := fig10Fixture(b)
	text := f.text[:kb*1000]
	if parallel {
		benchMatcher(b, engine.NewSFAParallel(f.s, 2, engine.ReduceSequential), text, true)
		return
	}
	benchMatcher(b, engine.NewDFASequential(f.d), text, true)
}

func BenchmarkFig10_Crossover_DFA_200KB(b *testing.B)  { benchFig10(b, 200, false) }
func BenchmarkFig10_Crossover_SFA2_200KB(b *testing.B) { benchFig10(b, 200, true) }
func BenchmarkFig10_Crossover_DFA_600KB(b *testing.B)  { benchFig10(b, 600, false) }
func BenchmarkFig10_Crossover_SFA2_600KB(b *testing.B) { benchFig10(b, 600, true) }
func BenchmarkFig10_Crossover_DFA_1MB(b *testing.B)    { benchFig10(b, 1000, false) }
func BenchmarkFig10_Crossover_SFA2_1MB(b *testing.B)   { benchFig10(b, 1000, true) }

// --- Table II: complexity rows ----------------------------------------------

// Algorithm 3's per-byte cost grows with |D|; Algorithm 5's does not.
func benchTable2Spec(b *testing.B, n int) {
	f := rnFixture(b, n)
	text := f.text
	if n >= 50 {
		// Alg. 3 is |D|× slower; keep the run short, cutting at a block
		// boundary so the truncated text stays in the language.
		cut := len(text) / 8
		cut -= cut % (2 * n)
		text = text[:cut]
	}
	benchMatcher(b, engine.NewDFASpeculative(f.d, 2, engine.ReduceSequential), text, true)
}

func BenchmarkTable2_Alg3Spec_D10(b *testing.B)  { benchTable2Spec(b, 5) }
func BenchmarkTable2_Alg3Spec_D100(b *testing.B) { benchTable2Spec(b, 50) }
func BenchmarkTable2_Alg3Spec_D300(b *testing.B) { benchTable2Spec(b, 150) }

func BenchmarkTable2_Alg5SFA_D10(b *testing.B)  { benchScale(b, rnFixture(b, 5), 2) }
func BenchmarkTable2_Alg5SFA_D100(b *testing.B) { benchScale(b, rnFixture(b, 50), 2) }
func BenchmarkTable2_Alg5SFA_D300(b *testing.B) { benchScale(b, rnFixture(b, 150), 2) }

// BenchmarkTable2_NFASim is the O(|N|·n) row.
func BenchmarkTable2_NFASim(b *testing.B) {
	a, err := nfa.Glushkov(syntax.MustParse("([0-4]{5}[5-9]{5})*", 0))
	if err != nil {
		b.Fatal(err)
	}
	sim := nfa.NewSimulator(a)
	text := textgen.RnText(5, 1<<20, 1)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sim.Match(text) {
			b.Fatal("rejected")
		}
	}
}

// BenchmarkTable2_LazySFA_D1000 exercises the on-the-fly engine where the
// eager SFA would need 10⁶ states.
func BenchmarkTable2_LazySFA_D1000(b *testing.B) {
	d := dfa.MustCompilePattern("([0-4]{500}[5-9]{500})*")
	text := textgen.RnText(500, benchMB()<<20, 1)
	m, err := engine.NewSFALazy(d, 2, 1<<21)
	if err != nil {
		b.Fatal(err)
	}
	benchMatcher(b, m, text, true)
}

// --- Table III: construction cost -------------------------------------------

func benchConstructDFA(b *testing.B, n int) {
	node := syntax.MustParse(fmt.Sprintf("([0-4]{%d}[5-9]{%d})*", n, n), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dfa.Compile(node, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func benchConstructDSFA(b *testing.B, n int) {
	d := dfa.MustCompilePattern(fmt.Sprintf("([0-4]{%d}[5-9]{%d})*", n, n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.BuildDSFA(d, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(s.NumStates)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
	}
}

func BenchmarkTable3_ConstructDFA_r5(b *testing.B)   { benchConstructDFA(b, 5) }
func BenchmarkTable3_ConstructDFA_r50(b *testing.B)  { benchConstructDFA(b, 50) }
func BenchmarkTable3_ConstructDFA_r500(b *testing.B) { benchConstructDFA(b, 500) }

func BenchmarkTable3_ConstructDSFA_r5(b *testing.B)  { benchConstructDSFA(b, 5) }
func BenchmarkTable3_ConstructDSFA_r50(b *testing.B) { benchConstructDSFA(b, 50) }
func BenchmarkTable3_ConstructDSFA_rBig(b *testing.B) {
	benchConstructDSFA(b, fig8N())
}

// --- Facts (Sect. VII-B) ----------------------------------------------------

func BenchmarkFacts_Fact1DFABlowup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := monoid.BuildFact1(10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFacts_Fact2FullMonoid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := monoid.Fact2DFA(5) // 3125 SFA states
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.BuildDSFA(d, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (harness.Config.Ablations) ----------------------------------

func BenchmarkAblation_ReductionSeq_p8(b *testing.B) {
	f := rnFixture(b, 50)
	benchMatcher(b, engine.NewSFAParallel(f.s, 8, engine.ReduceSequential), f.text, true)
}

func BenchmarkAblation_ReductionTree_p8(b *testing.B) {
	f := rnFixture(b, 50)
	benchMatcher(b, engine.NewSFAParallel(f.s, 8, engine.ReduceTree), f.text, true)
}

func BenchmarkAblation_TableLayout256(b *testing.B) {
	f := rnFixture(b, fig8N())
	benchMatcher(b, engine.NewSFAParallel(f.s, 2, engine.ReduceSequential), f.text, true)
}

func BenchmarkAblation_TableLayoutClass(b *testing.B) {
	f := rnFixture(b, fig8N())
	benchMatcher(b, engine.NewSFAParallel(f.s, 2, engine.ReduceSequential,
		engine.WithClassTable()), f.text, true)
}

func BenchmarkAblation_LazySFA(b *testing.B) {
	f := rnFixture(b, 50)
	m, err := engine.NewSFALazy(f.d, 2, 0)
	if err != nil {
		b.Fatal(err)
	}
	benchMatcher(b, m, f.text, true)
}

func BenchmarkAblation_FrontendGlushkov(b *testing.B) {
	node := syntax.MustParse("([0-4]{50}[5-9]{50})*", 0)
	for i := 0; i < b.N; i++ {
		if _, err := nfa.Glushkov(node); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_FrontendThompson(b *testing.B) {
	node := syntax.MustParse("([0-4]{50}[5-9]{50})*", 0)
	for i := 0; i < b.N; i++ {
		if _, err := nfa.Thompson(node); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Hot path: persistent pool + width-specialized tables (ISSUE 1) ---
//
// The Hotpath pairs compare the seed engine configuration (goroutines
// spawned per Match, int32 table — the paper's setup) against the pooled
// default (persistent workers, narrowest table width that fits). The
// r100 automaton (~40k SFA states) is the cache-sensitive regime: its
// int32 table is ~40 MiB, the auto-selected u16 table half that.
// Expected: pooled+auto ≥ 1.3× seed at p ≥ 4, and 0 allocs/op pooled.

func benchHotpath(b *testing.B, threads int, opts ...engine.Option) {
	f := rnFixture(b, 100)
	benchMatcher(b, engine.NewSFAParallel(f.s, threads, engine.ReduceSequential, opts...), f.text, true)
}

func BenchmarkHotpath_R100_Seed_p4(b *testing.B) {
	benchHotpath(b, 4, engine.WithSpawn(), engine.WithLayout(engine.LayoutI32))
}
func BenchmarkHotpath_R100_Pooled_p4(b *testing.B) { benchHotpath(b, 4) }
func BenchmarkHotpath_R100_PooledI32_p4(b *testing.B) {
	// Isolates the pool from the layout: pooled dispatch, seed table.
	benchHotpath(b, 4, engine.WithLayout(engine.LayoutI32))
}
func BenchmarkHotpath_R100_Seed_p8(b *testing.B) {
	benchHotpath(b, 8, engine.WithSpawn(), engine.WithLayout(engine.LayoutI32))
}
func BenchmarkHotpath_R100_Pooled_p8(b *testing.B) { benchHotpath(b, 8) }

// Small-input hot path: here per-call goroutine creation is the
// dominant overhead, the regime of Fig. 10.
func benchHotpathSmall(b *testing.B, opts ...engine.Option) {
	f := fig10Fixture(b)
	benchMatcher(b, engine.NewSFAParallel(f.s, 4, engine.ReduceSequential, opts...), f.text[:100_000], true)
}

func BenchmarkHotpath_100KB_Seed_p4(b *testing.B) {
	benchHotpathSmall(b, engine.WithSpawn(), engine.WithLayout(engine.LayoutI32))
}
func BenchmarkHotpath_100KB_Pooled_p4(b *testing.B) { benchHotpathSmall(b) }

// Per-layout throughput (MB/s via the B/s column) on the same automaton.
func benchLayout(b *testing.B, l engine.TableLayout) {
	f := rnFixture(b, 100)
	benchMatcher(b, engine.NewSFAParallel(f.s, 2, engine.ReduceSequential, engine.WithLayout(l)), f.text, true)
}

func BenchmarkLayout_R100_U16_p2(b *testing.B)   { benchLayout(b, engine.LayoutU16) }
func BenchmarkLayout_R100_I32_p2(b *testing.B)   { benchLayout(b, engine.LayoutI32) }
func BenchmarkLayout_R100_Class_p2(b *testing.B) { benchLayout(b, engine.LayoutClass) }

func BenchmarkLayout_R5_U8_p2(b *testing.B) {
	f := rnFixture(b, 5)
	benchMatcher(b, engine.NewSFAParallel(f.s, 2, engine.ReduceSequential, engine.WithLayout(engine.LayoutU8)), f.text, true)
}

// --- RuleSet: combined multi-pattern D-SFA vs isolated engines (ISSUE 2) ---
//
// One SNORT-style sample scanned over synthetic traffic. Combined mode
// reads the input once per shard; isolated mode once per rule. The MB/s
// column (B/s via SetBytes) is the comparison the harness `ruleset`
// table makes at full size; p=1 so the ratio is pass-count, not
// parallelism.

type rulesetBench struct {
	rs   *sfa.RuleSet
	text []byte
}

var (
	rulesetMu  sync.Mutex
	rulesetMap = map[string]*rulesetBench{}
)

func rulesetFixture(b *testing.B, key string, extra ...sfa.Option) *rulesetBench {
	text, _ := textgen.Traffic{SuspiciousPerMille: 2}.Generate(benchMB()<<20, 1)
	return rulesetFixtureOn(b, key, text, extra...)
}

// rulesetSparseFixture scans the payload corpus instead: benign frames
// contain almost no rule literals, so the prefilter's candidate windows
// collapse — the on/off pair over it is the cascade's headline ratio
// (Traffic, every line carrying an HTTP keyword, shows the
// low-selectivity floor instead).
func rulesetSparseFixture(b *testing.B, key string, extra ...sfa.Option) *rulesetBench {
	text, _ := textgen.Payload{SuspiciousPerMille: 2}.Generate(benchMB()<<20, 1)
	return rulesetFixtureOn(b, "sparse-"+key, text, extra...)
}

func rulesetFixtureOn(b *testing.B, key string, text []byte, extra ...sfa.Option) *rulesetBench {
	b.Helper()
	rulesetMu.Lock()
	defer rulesetMu.Unlock()
	if f, ok := rulesetMap[key]; ok {
		return f
	}
	rules := snort.ScanSample(16)
	defs := make([]sfa.RuleDef, len(rules))
	for i, r := range rules {
		defs[i] = sfa.RuleDef{Name: fmt.Sprintf("r%03d", r.ID), Pattern: r.Pattern, Flags: harness.SFAFlags(r.Flags)}
	}
	opts := append([]sfa.Option{sfa.WithSearch(), sfa.WithThreads(1)}, extra...)
	rs, err := sfa.NewRuleSetFromDefs(defs, opts...)
	if err != nil {
		b.Fatal(err)
	}
	f := &rulesetBench{rs: rs, text: text}
	rulesetMap[key] = f
	return f
}

func benchRuleSet(b *testing.B, f *rulesetBench) {
	b.SetBytes(int64(len(f.text)))
	want := f.rs.Scan(f.text, 0) // warm the scan contexts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := f.rs.Scan(f.text, 0); len(got) != len(want) {
			b.Fatalf("verdict changed: %v vs %v", got, want)
		}
	}
}

func BenchmarkRuleSet_Combined_p1(b *testing.B) {
	benchRuleSet(b, rulesetFixture(b, "combined"))
}

func BenchmarkRuleSet_Sharded4_p1(b *testing.B) {
	benchRuleSet(b, rulesetFixture(b, "sharded4", sfa.WithShards(4)))
}

func BenchmarkRuleSet_Isolated_p1(b *testing.B) {
	benchRuleSet(b, rulesetFixture(b, "isolated", sfa.WithIsolatedRules()))
}

// The sparse pair is the prefilter's acceptance A/B: same combined set,
// payload corpus, cascade on vs off. On Traffic (the benchmarks above)
// the prefilter's gain is modest because HTTP keywords occur on every
// line; here candidate windows collapse and the ratio is the headline.
func BenchmarkRuleSet_PrefilterSparse_p1(b *testing.B) {
	benchRuleSet(b, rulesetSparseFixture(b, "combined"))
}

func BenchmarkRuleSet_NoPrefilterSparse_p1(b *testing.B) {
	benchRuleSet(b, rulesetSparseFixture(b, "nopre", sfa.WithoutPrefilter()))
}

// The cold-vs-warm pair quantifies the snapshot subsystem: ColdBuild_Tuple
// is the full compile of the curated snort sample (parse → product DFA →
// mask-aware minimization → D-SFA, per shard); WarmLoad replaces all of
// it with a decode+validate pass over the snapshot bytes. BENCH_5.json
// records them, so the warm-restart win is tracked release over release.
func snapshotBenchDefs() []sfa.RuleDef {
	rules := snort.ScanSample(12)
	defs := make([]sfa.RuleDef, len(rules))
	for i, r := range rules {
		defs[i] = sfa.RuleDef{Name: fmt.Sprintf("r%03d", r.ID), Pattern: r.Pattern, Flags: harness.SFAFlags(r.Flags)}
	}
	return defs
}

// BenchmarkRuleSet_ColdBuild_Tuple is the cold compile of the curated
// snort sample through the tuple-interned construction (intern k-tuples
// of component D-SFA states, materialize each mapping vector once per
// state). It is the successor of BENCH_4's RuleSet_SnapshotColdBuild
// (same defs, same options) — compare against WarmLoad below for the
// snapshot win.
func BenchmarkRuleSet_ColdBuild_Tuple(b *testing.B) {
	defs := snapshotBenchDefs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sfa.NewRuleSetFromDefs(defs, sfa.WithSearch(), sfa.WithThreads(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuleSet_LazyColdStart tracks the lazy subsystem's headline
// scenario end to end: a bounded-gap corpus the eager planner rejects
// outright (the hard SFA cap fails every split) is compiled with
// WithLazyCompile under a 16 MiB table budget and scanned once. Per
// iteration this is build + first scan: the cold-start latency of a
// tenant the eager builder cannot host at all (BENCH_7.json). Since the
// rules are windowable, the scan verifies candidate windows on single
// rules' DFAs and fills no product state; the lazy tuple's own cold
// start is what the same set costs compiled WithoutPrefilter.
func BenchmarkRuleSet_LazyColdStart(b *testing.B) {
	defs := make([]sfa.RuleDef, 64)
	for i := range defs {
		defs[i] = sfa.RuleDef{
			Name:    fmt.Sprintf("gap%03d", i),
			Pattern: fmt.Sprintf("q%02x.{0,%d}z%02x", i%256, 8+i%9, (i*7)%256),
		}
	}
	opts := []sfa.Option{sfa.WithSearch(), sfa.WithThreads(1), sfa.WithSFACap(512)}
	if _, err := sfa.NewRuleSetFromDefs(defs, opts...); err == nil {
		b.Fatal("eager build unexpectedly succeeded; the corpus no longer measures lazy cold start")
	}
	text, _ := textgen.Traffic{SuspiciousPerMille: 2}.Generate(benchMB()<<20, 1)
	dst := make([]uint64, 1)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := sfa.NewRuleSetFromDefs(defs, append(opts,
			sfa.WithLazyCompile(), sfa.WithTableBudget(sfa.NewTableBudget(16<<20)))...)
		if err != nil {
			b.Fatal(err)
		}
		rs.MatchMask(text, dst[:rs.MaskWords()])
	}
}

func BenchmarkRuleSet_SnapshotWarmLoad(b *testing.B) {
	rs, err := sfa.NewRuleSetFromDefs(snapshotBenchDefs(), sfa.WithSearch(), sfa.WithThreads(1))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.Save(&buf); err != nil {
		b.Fatal(err)
	}
	snap := buf.Bytes()
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sfa.LoadRuleSet(bytes.NewReader(snap), sfa.WithThreads(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Chunking compares p chunks on p goroutines against
// 4p chunks on p goroutines' worth of parallelism (more, smaller chunks
// raise reduction cost without helping balanced inputs).
func BenchmarkAblation_Chunking_p2(b *testing.B) {
	f := rnFixture(b, 5)
	benchMatcher(b, engine.NewSFAParallel(f.s, 2, engine.ReduceSequential), f.text, true)
}

func BenchmarkAblation_Chunking_p16(b *testing.B) {
	f := rnFixture(b, 5)
	benchMatcher(b, engine.NewSFAParallel(f.s, 16, engine.ReduceSequential), f.text, true)
}

// --- Streaming hot path: carried-mapping writes (ISSUE 3) ---
//
// The serving subsystem's per-chunk cost: RuleStream.Write advances one
// |D|-sized mapping per shard (pooled parallel scan + ⊙-fold) and Mask
// extracts the verdict into a caller buffer. Both must stay at
// 0 allocs/op — benchjson gates the StreamHotpath benchmarks exactly
// like the pooled Match hot path.

func BenchmarkStreamHotpath_RuleSetWrite64KB_p1(b *testing.B) {
	f := rulesetFixture(b, "combined")
	st, err := f.rs.NewStream()
	if err != nil {
		b.Fatal(err)
	}
	chunk := f.text[:64<<10]
	dst := make([]uint64, f.rs.MaskWords())
	st.Write(chunk) // warm the engine contexts
	st.Mask(dst)
	b.SetBytes(int64(len(chunk)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Write(chunk)
		st.Mask(dst)
	}
}

func BenchmarkStreamHotpath_RuleSetWrite64KB_p4(b *testing.B) {
	f := rulesetFixture(b, "combined-p4", sfa.WithThreads(4))
	st, err := f.rs.NewStream()
	if err != nil {
		b.Fatal(err)
	}
	chunk := f.text[:64<<10]
	dst := make([]uint64, f.rs.MaskWords())
	st.Write(chunk)
	st.Mask(dst)
	b.SetBytes(int64(len(chunk)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Write(chunk)
		st.Mask(dst)
	}
}

// BenchmarkStreamHotpath_InstrumentedWrite64KB_p1 is the p1 streaming
// hot path with the full observability layer attached via WithScanStats:
// every Write records chunk bytes, compose latency, and chunk-size
// histogram buckets. The obs primitives are striped atomics and
// fixed-size arrays precisely so this benchmark reports the same
// 0 allocs/op as the uninstrumented twin — benchjson gates on
// "Instrumented" to keep it that way.
// instrumentedScanStats is package-level because the ruleset fixture is
// cached across benchmark invocations: the rule set built on the first
// call keeps recording into this one aggregate for every b.N round.
var instrumentedScanStats = sfa.NewScanStats()

func BenchmarkStreamHotpath_InstrumentedWrite64KB_p1(b *testing.B) {
	f := rulesetFixture(b, "combined-instrumented", sfa.WithScanStats(instrumentedScanStats))
	st, err := f.rs.NewStream()
	if err != nil {
		b.Fatal(err)
	}
	chunk := f.text[:64<<10]
	dst := make([]uint64, f.rs.MaskWords())
	st.Write(chunk) // warm the engine contexts
	st.Mask(dst)
	before := instrumentedScanStats.Snapshot().Chunks
	b.SetBytes(int64(len(chunk)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Write(chunk)
		st.Mask(dst)
	}
	b.StopTimer()
	if got := instrumentedScanStats.Snapshot().Chunks - before; got < int64(b.N) {
		b.Fatalf("instrumentation not engaged: %d chunks recorded for %d writes", got, b.N)
	}
}

// BenchmarkStreamHotpath_FlightRecordedWrite64KB_p1 layers the flight
// recorder on top of the instrumented hot path: every iteration does the
// streamed Write + Mask and then records one ScanRecord into the ring,
// exactly what the serve scan handler does per request. The ring's
// record path is all-atomic stores into a preallocated slot, so this
// must report the same 0 allocs/op as its twins — benchjson gates on
// "FlightRecorded".
func BenchmarkStreamHotpath_FlightRecordedWrite64KB_p1(b *testing.B) {
	f := rulesetFixture(b, "combined-instrumented", sfa.WithScanStats(instrumentedScanStats))
	st, err := f.rs.NewStream()
	if err != nil {
		b.Fatal(err)
	}
	ring := sfa.NewFlightRecorder(256)
	chunk := f.text[:64<<10]
	dst := make([]uint64, f.rs.MaskWords())
	st.Write(chunk) // warm the engine contexts
	st.Mask(dst)
	b.SetBytes(int64(len(chunk)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Write(chunk)
		st.Mask(dst)
		ss := st.Stats()
		ring.Record(sfa.ScanRecord{
			UnixNano:    int64(i),
			Tenant:      "bench",
			Generation:  1,
			Bytes:       int64(len(chunk)),
			Chunks:      ss.Chunks,
			PrefilterNs: ss.PrefilterNs,
			ComposeNs:   ss.ComposeNs - ss.PrefilterNs,
			Matches:     int64(len(dst)),
		})
	}
	b.StopTimer()
	if got := len(ring.Snapshot(8)); got == 0 {
		b.Fatal("flight recorder recorded nothing")
	}
}

func BenchmarkStreamHotpath_SingleWrite64KB_p4(b *testing.B) {
	re, err := sfa.Compile("(([02468][13579]){5})*", sfa.WithThreads(4))
	if err != nil {
		b.Fatal(err)
	}
	st, err := re.NewStream()
	if err != nil {
		b.Fatal(err)
	}
	chunk := textgen.EvenOddText(64<<10, 1)
	st.Write(chunk)
	b.SetBytes(int64(len(chunk)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Write(chunk); err != nil {
			b.Fatal(err)
		}
	}
	if !st.Accepted() {
		b.Fatal("streamed input rejected")
	}
}
