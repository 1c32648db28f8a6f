package harness

import (
	"fmt"
	"time"

	"repro/internal/snort"
	"repro/internal/syntax"
	"repro/internal/textgen"
	"repro/sfa"
)

// Ruleset measures the multi-pattern architectures on the workload the
// paper's introduction motivates: one SNORT-style rule set scanned over
// heavy traffic. Three engines over identical rules and input:
//
//	combined     — one product D-SFA with per-rule accept masks (the
//	               planner may shard on state-budget blow-up), built by
//	               the default tuple-interned construction;
//	combined-vec — the same set built by the legacy vector-interning
//	               construction (hash a |D|-long mapping per candidate
//	               state). Identical verdicts by contract; the pair's
//	               "build s" column is the tuple-interning speedup and
//	               the Σ|Sd| delta is tuple identity's state surplus;
//	sharded-K    — the planner forced to K combined shards;
//	isolated     — one independent engine per rule, N passes per input
//	               (the pre-combined architecture, kept as oracle).
//
// The reported MB/s is whole-input scan throughput: bytes of traffic
// divided by the time to produce the full per-rule verdict. Combined
// mode reads each input byte once per shard instead of once per rule,
// which is the entire effect — per-byte work is one table lookup in
// every mode.
func (c Config) Ruleset() error {
	c = c.Defaults()
	n := c.SnortN
	if n > 40 {
		// The curated scan sample tops out near 50 rules; the study uses
		// a fixed slice so the shard planner's output stays comparable.
		n = 40
	}
	rules := snort.ScanSample(n)
	defs := make([]sfa.RuleDef, len(rules))
	for i, r := range rules {
		defs[i] = sfa.RuleDef{
			Name:    fmt.Sprintf("r%03d-%s", r.ID, r.Category),
			Pattern: r.Pattern,
			Flags:   SFAFlags(r.Flags),
		}
	}

	size := c.TextMB << 20 / 4
	if size < 1<<20 {
		size = 1 << 20
	}
	data, planted := textgen.Traffic{SuspiciousPerMille: 2}.Generate(size, c.Seed)

	c.header(fmt.Sprintf("Ruleset — combined vs sharded vs isolated (%d rules, %d MiB traffic, %d planted, p=1)",
		len(defs), size>>20, planted))

	type mode struct {
		name string
		opts []sfa.Option
	}
	base := []sfa.Option{sfa.WithSearch(), sfa.WithThreads(1)}
	if c.Spawn {
		base = append(base, sfa.WithSpawnPerMatch())
	}
	modes := []mode{
		{"combined", base},
		{"combined-nopre", append([]sfa.Option{sfa.WithoutPrefilter()}, base...)},
		{"combined-vec", append([]sfa.Option{sfa.WithVectorInterning()}, base...)},
		{"sharded-2", append([]sfa.Option{sfa.WithShards(2)}, base...)},
		{"sharded-4", append([]sfa.Option{sfa.WithShards(4)}, base...)},
		{"isolated", append([]sfa.Option{sfa.WithIsolatedRules()}, base...)},
	}

	w := c.table()
	fmt.Fprintf(w, "mode\tshards\tΣ|D|\tΣ|Sd|\ttables MiB\tbuild s\tMB/s\tcand%%\tbypass%%\thits\t\n")
	var oracle []string
	haveOracle := false
	var combined *sfa.RuleSet
	reports := make([]sfa.BuildReport, 0, len(modes))
	for _, m := range modes {
		start := time.Now()
		rs, err := sfa.NewRuleSetFromDefs(defs, m.opts...)
		if err != nil {
			return fmt.Errorf("ruleset %s: %w", m.name, err)
		}
		build := time.Since(start)
		reports = append(reports, rs.BuildReport())
		if combined == nil {
			combined = rs
		}

		var dStates, sStates int
		var tableBytes int64
		for _, sh := range rs.Shards() {
			dStates += sh.DFAStates
			sStates += sh.SFAStates
			tableBytes += sh.TableBytes
		}

		var hits []string
		elapsed := bestOf(c.Repeats, func() { hits = rs.Scan(data, 0) })
		if !haveOracle {
			oracle, haveOracle = hits, true
		} else if !equalStrings(hits, oracle) {
			return fmt.Errorf("ruleset %s: verdict diverged from %s: %v vs %v",
				m.name, modes[0].name, hits, oracle)
		}
		cand, bypass := prefilterShares(rs.PrefilterStats())
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f\t%.2f\t%.1f\t%s\t%s\t%d\t\n",
			m.name, rs.NumShards(), dStates, sStates,
			float64(tableBytes)/(1<<20), build.Seconds(),
			float64(size)/elapsed.Seconds()/1e6, cand, bypass, len(hits))
	}
	w.Flush()
	c.printf("matching rules: %v\n", oracle)

	// Where the build time went, per mode — the same BuildReport the
	// server exposes on /metrics, so a local run can explain a slow
	// reload without standing up sfaserve.
	c.header("Ruleset build pipeline — planner and shard-construction breakdown")
	w = c.table()
	fmt.Fprintf(w, "mode\tplan bins\tsplits\tmerges\tcache hits\tbuilt\tprep ms\tbuild ms\ttotal ms\t\n")
	for i, m := range modes {
		r := reports[i]
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%.1f\t%.1f\t%.1f\t\n",
			m.name, r.PlanBins, r.Splits, r.Merges, r.CacheHits, r.Built,
			float64(r.PrepNs)/1e6, float64(r.BuildNs)/1e6, float64(r.TotalNs)/1e6)
	}
	w.Flush()

	// Cost attribution for the combined mode's runs — the same always-on
	// account sfaserve exposes at /debug/attribution. The shard table says
	// where scan time went; the heat table says which rules actually fire
	// on this corpus (most never do — planted suspicion is rare).
	c.header("Ruleset attribution — combined mode: per-shard cost and rule heat")
	w = c.table()
	fmt.Fprintf(w, "shard\trules\tlayout\tprefilter\tcompose ms\tchunks\tMB scanned\tcand windows\t\n")
	for i, sh := range combined.Shards() {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%.1f\t%d\t%.1f\t%d\t\n",
			i, len(sh.Rules), sh.Layout, sh.Prefilter,
			float64(sh.ComposeNs)/1e6, sh.ScanChunks,
			float64(sh.ScanBytes)/1e6, sh.CandWindows)
	}
	w.Flush()
	heat := combined.RuleHeat()
	if len(heat) > 10 {
		heat = heat[:10]
	}
	w = c.table()
	fmt.Fprintf(w, "rule (top %d by heat)\tmatches\t\n", len(heat))
	for _, rh := range heat {
		fmt.Fprintf(w, "%s\t%d\t\n", rh.Name, rh.Matches)
	}
	w.Flush()

	// The prefilter A/B on its value corpus: Payload frames contain
	// almost no rule literals (where Traffic's HTTP lines contain one on
	// every line — the low-selectivity regime visible in cand% above), so
	// candidate windows collapse and the cascade's speedup is maximal.
	sparse, sp := textgen.Payload{SuspiciousPerMille: 2}.Generate(size, c.Seed)
	c.header(fmt.Sprintf("Ruleset prefilter A/B — sparse payload corpus (%d rules, %d MiB, %d planted, p=1)",
		len(defs), size>>20, sp))
	w = c.table()
	fmt.Fprintf(w, "mode\tshards\tMB/s\tcand%%\tbypass%%\thits\t\n")
	var sparseOracle []string
	haveSparse := false
	for _, m := range modes[:2] { // combined vs combined-nopre
		rs, err := sfa.NewRuleSetFromDefs(defs, m.opts...)
		if err != nil {
			return fmt.Errorf("ruleset %s (sparse): %w", m.name, err)
		}
		var hits []string
		elapsed := bestOf(c.Repeats, func() { hits = rs.Scan(sparse, 0) })
		if !haveSparse {
			sparseOracle, haveSparse = hits, true
		} else if !equalStrings(hits, sparseOracle) {
			return fmt.Errorf("ruleset %s (sparse): verdict diverged: %v vs %v",
				m.name, hits, sparseOracle)
		}
		cand, bypass := prefilterShares(rs.PrefilterStats())
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%s\t%s\t%d\t\n",
			m.name, rs.NumShards(),
			float64(size)/elapsed.Seconds()/1e6, cand, bypass, len(hits))
	}
	w.Flush()
	return nil
}

// prefilterShares renders the prefilter's two ratios over a run, "-"
// without a prefilter: cand% is its selectivity, the share of
// shard-bytes the automata actually walked, and bypass% the arm split —
// the share of block bytes that skipped the literal matcher and walked
// the window shards whole in one lock-step pass, because that measured
// cheaper than the cascade on this corpus.
func prefilterShares(pf sfa.PrefilterStats) (cand, bypass string) {
	cand, bypass = "-", "-"
	if pf.Enabled && pf.TotalBytes > 0 {
		cand = fmt.Sprintf("%.1f", 100*float64(pf.CandidateBytes)/float64(pf.TotalBytes))
	}
	if blocks := pf.BypassedBytes + pf.MatcherBytes; pf.Enabled && blocks > 0 {
		bypass = fmt.Sprintf("%.1f", 100*float64(pf.BypassedBytes)/float64(blocks))
	}
	return cand, bypass
}

// SFAFlags converts the corpus' parser flags to public API flags. It is
// exported for the root benchmark suite; package sfa's own tests carry a
// private copy because importing harness from there would cycle
// (harness → sfa → harness test binary).
func SFAFlags(f syntax.Flags) sfa.Flag {
	var out sfa.Flag
	if f&syntax.FoldCase != 0 {
		out |= sfa.FoldCase
	}
	if f&syntax.DotAll != 0 {
		out |= sfa.DotAll
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
