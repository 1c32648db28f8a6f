package sfa

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/multi"
	"repro/internal/prefilter"
	"repro/internal/snapshot"
	"repro/internal/syntax"
)

// RuleSet matches many patterns against the same input — the deep-packet-
// inspection workload (one SNORT ruleset, many packets) that motivates
// the paper's introduction.
//
// By default the patterns are compiled into a single combined D-SFA whose
// accept states carry a per-rule bitmask, so one pooled parallel pass
// over the input reports every matching rule at once. When the combined
// automaton would blow past its state budget — the known construction
// hazard of product automata — the compiler falls back to K combined
// shards scanned concurrently, with rules assigned greedily by estimated
// automaton size. WithIsolatedRules restores the previous architecture of
// one independent engine per rule (N full passes per input); it survives
// as the oracle the combined path is cross-checked against, and it is
// also what a rule set compiled WithEngine other than the default SFA
// engine uses (the combined automaton is SFA-only). WithDFACap and
// WithSFACap keep their per-rule fail-fast contract in both modes;
// WithTreeReduction has no effect on the combined pass, whose reduction
// is the O(p) sequential fold.
type RuleSet struct {
	defs []RuleDef // sorted by name; rule index == reporting position
	idx  map[string]int
	keys []string // per-rule compile identity (pattern + effective flags)
	opts []Option

	set      *multi.Set // combined/sharded engine
	isolated []*Regexp  // per-rule engines (WithIsolatedRules)

	mu    sync.Mutex
	cache map[string]*Regexp // lazy per-rule compilations for Rule
}

// RuleDef names one pattern of a rule set. Flags are OR-ed with any
// set-wide WithFlags option, so rule sets can mix per-rule modifiers
// (as SNORT's pcre options do).
type RuleDef struct {
	Name    string
	Pattern string
	Flags   Flag
}

// NewRuleSet compiles the named patterns with shared options. It fails on
// the first pattern that does not compile, identifying it by name.
func NewRuleSet(rules map[string]string, opts ...Option) (*RuleSet, error) {
	defs := make([]RuleDef, 0, len(rules))
	for name, pattern := range rules {
		defs = append(defs, RuleDef{Name: name, Pattern: pattern})
	}
	return NewRuleSetFromDefs(defs, opts...)
}

// NewRuleSetFromDefs is NewRuleSet for explicit definitions with
// per-rule flags. Rules are reported in name order regardless of input
// order; duplicate names are rejected.
func NewRuleSetFromDefs(defs []RuleDef, opts ...Option) (*RuleSet, error) {
	rs, _, err := buildRuleSet(defs, opts, nil)
	return rs, err
}

// ReloadStats reports what a Rebuild carried over versus recompiled,
// and the prefilter shape the new generation came up with.
type ReloadStats struct {
	ShardsReused  int // combined shards (or per-rule engines) kept by pointer
	ShardsRebuilt int // shards (or engines) built from scratch
	RulesAdded    int // rules new in this generation, or with changed pattern/flags
	RulesRemoved  int // rules gone from this generation, or with changed pattern/flags
	// Prefilter is the new generation's literal-cascade snapshot (static
	// shape only — the dynamic counters are zero on a fresh build).
	Prefilter PrefilterStats
}

// Rebuild compiles a new RuleSet for defs with this set's options,
// reusing every combined shard whose rule membership is unchanged — the
// expensive product/D-SFA construction is paid only for added rules,
// edited rules, and the former shard-mates of removed rules. In isolated
// mode the per-rule engines are reused the same way. The receiver is not
// modified; in-flight matching against it stays valid (internal/serve's
// Ruleboard builds its atomic hot-reload on exactly this).
func (rs *RuleSet) Rebuild(defs []RuleDef) (*RuleSet, ReloadStats, error) {
	next, reuse, err := buildRuleSet(defs, rs.opts, rs)
	if err != nil {
		return nil, ReloadStats{}, err
	}
	stats := ReloadStats{
		ShardsReused:  reuse.Reused,
		ShardsRebuilt: reuse.Rebuilt,
		Prefilter:     next.PrefilterStats(),
	}
	oldKeys := make(map[string]string, len(rs.defs))
	for i, d := range rs.defs {
		oldKeys[d.Name] = rs.keys[i]
	}
	for i, d := range next.defs {
		if k, ok := oldKeys[d.Name]; !ok || k != next.keys[i] {
			stats.RulesAdded++
		}
	}
	newKeys := make(map[string]string, len(next.defs))
	for i, d := range next.defs {
		newKeys[d.Name] = next.keys[i]
	}
	for name, k := range oldKeys {
		if nk, ok := newKeys[name]; !ok || nk != k {
			stats.RulesRemoved++
		}
	}
	return next, stats, nil
}

// buildRuleSet is the shared constructor; a non-nil prev enables shard
// (or isolated-engine) reuse across generations.
func buildRuleSet(defs []RuleDef, opts []Option, prev *RuleSet) (*RuleSet, multi.ReuseStats, error) {
	if len(defs) == 0 {
		return nil, multi.ReuseStats{}, fmt.Errorf("sfa: empty rule set")
	}
	cfg := buildConfig(opts)

	rs := &RuleSet{
		defs: append([]RuleDef(nil), defs...),
		opts: opts,
		idx:  make(map[string]int, len(defs)),
	}
	// Deterministic order for reporting.
	sortDefs(rs.defs)
	for i, d := range rs.defs {
		if _, dup := rs.idx[d.Name]; dup {
			return nil, multi.ReuseStats{}, fmt.Errorf("sfa: duplicate rule %s", d.Name)
		}
		rs.idx[d.Name] = i
	}
	// A rule's compiled automaton is fully determined by its pattern and
	// effective flags (set-wide options being fixed per set), so this key
	// is what reuse across generations — and the content-addressed shard
	// cache — matches on.
	rs.keys = make([]string, len(rs.defs))
	for i, d := range rs.defs {
		rs.keys[i] = ruleKey(cfg.flags, cfg.search, d)
	}

	// The combined automaton is SFA-only: a rule set compiled for any
	// other engine (lazy, DFA, spec, NFA) keeps the per-rule
	// architecture those engines imply.
	if cfg.isolatedRules || cfg.eng != EngineSFA {
		var pool map[string][]*Regexp
		if prev != nil && prev.isolated != nil {
			pool = make(map[string][]*Regexp, len(prev.isolated))
			for i, re := range prev.isolated {
				pool[prev.keys[i]] = append(pool[prev.keys[i]], re)
			}
		}
		rs.isolated = make([]*Regexp, len(rs.defs))
		var stats multi.ReuseStats
		for i, d := range rs.defs {
			if q := pool[rs.keys[i]]; len(q) > 0 {
				rs.isolated[i], pool[rs.keys[i]] = q[0], q[1:]
				stats.Reused++
				continue
			}
			re, err := rs.compileRule(d)
			if err != nil {
				return nil, multi.ReuseStats{}, err
			}
			rs.isolated[i] = re
			stats.Rebuilt++
		}
		return rs, stats, nil
	}

	nodes := make([]*syntax.Node, len(rs.defs))
	infos := make([]prefilter.Rule, len(rs.defs))
	for i, d := range rs.defs {
		node, info, err := parseRule(d, cfg)
		if err != nil {
			return nil, multi.ReuseStats{}, fmt.Errorf("sfa: rule %s: %w", d.Name, err)
		}
		nodes[i] = node
		infos[i] = info
	}
	var prevSet *multi.Set
	var prevKeys []string
	if prev != nil && prev.set != nil {
		prevSet, prevKeys = prev.set, prev.keys
	}
	mo := multi.Options{
		SFABudget:     cfg.shardBudget,
		SFAHardCap:    cfg.sfaCap,
		ForceShards:   cfg.shards,
		PerRuleDFACap: cfg.dfaCap,
		Threads:       cfg.threads,
		Lazy:          cfg.lazyCompile,
		Budget:        cfg.tableBudget.inner(),
		Stats:         cfg.scanStats,
	}
	if !cfg.noPrefilter {
		mo.Prefilter = infos
	}
	if cfg.cacheDir != "" {
		st, err := snapshot.OpenStore(cfg.cacheDir)
		if err != nil {
			return nil, multi.ReuseStats{}, fmt.Errorf("sfa: shard cache: %w", err)
		}
		mo.Cache = st
	}
	set, stats, err := multi.Recompile(nodes, rs.keys, prevSet, prevKeys, mo)
	if err != nil {
		return nil, multi.ReuseStats{}, fmt.Errorf("sfa: %w", err)
	}
	rs.set = set
	return rs, stats, nil
}

// sortDefs puts rule definitions in reporting order (by name).
func sortDefs(defs []RuleDef) {
	sort.Slice(defs, func(i, j int) bool { return defs[i].Name < defs[j].Name })
}

// ruleKey is a rule's compile-identity string: pattern source plus every
// semantics-affecting input — flags AND the search/whole matching mode,
// which changes the compiled automaton via search bracketing. Equal keys
// guarantee identical compiled automata — the contract behind hot-reload
// shard reuse and the content-addressed shard cache alike (a key that
// omitted the mode would let a -whole build load a search-bracketed
// shard from a shared cache directory and return substring verdicts).
func ruleKey(setFlags Flag, search bool, d RuleDef) string {
	mode := byte('w')
	if search {
		mode = 's'
	}
	return fmt.Sprintf("%02x%c\x00%s", uint8(setFlags|d.Flags), mode, d.Pattern)
}

// parseRule runs the front end — parse, per-rule flags, literal
// extraction, search bracketing — that the combined compiler shares with
// Compile. The extraction sees the rule as written (before the .*
// brackets, which would make every literal optional); a rule whose AST
// defeats extraction gets the zero info — uncovered, scanned in full —
// never an error.
func parseRule(d RuleDef, cfg config) (*syntax.Node, prefilter.Rule, error) {
	var sflags syntax.Flags
	if (cfg.flags|d.Flags)&FoldCase != 0 {
		sflags |= syntax.FoldCase
	}
	if (cfg.flags|d.Flags)&DotAll != 0 {
		sflags |= syntax.DotAll
	}
	node, err := syntax.Parse(d.Pattern, sflags)
	if err != nil {
		return nil, prefilter.Rule{}, err
	}
	info := prefilter.Extract(node, cfg.search)
	if cfg.search {
		node = syntax.BracketForSearch(node)
	}
	return node, info, nil
}

// compileRule builds the rule's own isolated Regexp (per-rule flags
// appended so they win over the set-wide WithFlags).
func (rs *RuleSet) compileRule(d RuleDef) (*Regexp, error) {
	cfg := buildConfig(rs.opts)
	opts := append(append([]Option(nil), rs.opts...), WithFlags(cfg.flags|d.Flags))
	re, err := Compile(d.Pattern, opts...)
	if err != nil {
		return nil, fmt.Errorf("sfa: rule %s: %w", d.Name, err)
	}
	return re, nil
}

// Len returns the number of rules.
func (rs *RuleSet) Len() int { return len(rs.defs) }

// Defs returns a copy of the rule definitions in reporting (Names)
// order — what a caller persisting or mirroring the set (internal/serve's
// state directory) round-trips through NewRuleSetFromDefs.
func (rs *RuleSet) Defs() []RuleDef {
	return append([]RuleDef(nil), rs.defs...)
}

// Names returns the rule names in the order Scan reports them.
func (rs *RuleSet) Names() []string {
	out := make([]string, len(rs.defs))
	for i, d := range rs.defs {
		out[i] = d.Name
	}
	return out
}

// NumShards returns how many combined automata the set was compiled
// into: 1 when every rule fit one combined D-SFA, more after a blow-up
// fallback, and Len() in isolated mode.
func (rs *RuleSet) NumShards() int {
	if rs.isolated != nil {
		return len(rs.isolated)
	}
	return rs.set.NumShards()
}

// ShardInfo describes one combined shard of the set.
type ShardInfo struct {
	Rules      []string // rule names covered by this shard
	DFAStates  int      // combined minimal DFA, live states
	SFAStates  int      // combined D-SFA, live states
	Layout     string   // resolved transition-table layout
	TableBytes int64    // match-table bytes built so far (see docs/observability.md)
	BuildID    uint64   // construction id; stable when Rebuild reuses the shard
	// Prefilter is the shard's scan mode under the literal cascade:
	// "window" (scans only candidate windows around literal hits), "gate"
	// (skipped outright when none of its literals occur), "full" (always
	// scans everything), or "off" when the set has no prefilter.
	Prefilter string
	// Lazy marks a shard compiled WithLazyCompile: its product states are
	// materialized on demand under the table budget. For lazy shards
	// DFAStates is the summed component-DFA size, SFAStates the resident
	// (currently materialized) state count, and the counters below track
	// its cache behaviour.
	Lazy          bool
	ResidentBytes int64 // bytes currently charged to the table budget
	Fills         int64 // states materialized since build
	Evictions     int64 // whole-structure resets under budget pressure
	// HotStates is the shard's chunk-boundary state frequency table
	// (descending), populated only when the set scans with an attached
	// ScanStats (WithScanStats); HotOther counts boundary crossings the
	// fixed-size table could not attribute. The distribution is the
	// warm-start set Ko-style speculative chunk matching would use.
	HotStates []StateCount
	HotOther  int64
	// Always-on cost attribution: wall time and traffic this shard's
	// engine consumed, accumulated over the engine's lifetime. Rebuild
	// reuses unchanged engines, so a reused shard's account spans
	// generations — exactly what "which shard costs" needs.
	ComposeNs   int64 // ns composing chunks / one-shot scans
	ScanChunks  int64 // chunks + one-shot scans that reached the automaton
	ScanBytes   int64 // bytes the engine actually walked
	CandWindows int64 // prefilter candidate windows verified
}

// Shards reports per-shard statistics; in isolated mode every rule is
// its own shard.
func (rs *RuleSet) Shards() []ShardInfo {
	if rs.isolated != nil {
		out := make([]ShardInfo, len(rs.isolated))
		for i, re := range rs.isolated {
			s := re.Sizes()
			out[i] = ShardInfo{
				Rules:     []string{rs.defs[i].Name},
				DFAStates: s.DFALive,
				SFAStates: s.SFALive,
				Prefilter: "off",
			}
		}
		return out
	}
	infos := rs.set.Shards()
	out := make([]ShardInfo, len(infos))
	for i, info := range infos {
		names := make([]string, len(info.Rules))
		for j, r := range info.Rules {
			names[j] = rs.defs[r].Name
		}
		out[i] = ShardInfo{
			Rules:         names,
			DFAStates:     info.DFAStates,
			SFAStates:     info.SFAStates,
			Layout:        info.Layout,
			TableBytes:    info.TableBytes,
			BuildID:       info.BuildID,
			Prefilter:     info.Prefilter,
			Lazy:          info.Lazy,
			ResidentBytes: info.ResidentBytes,
			Fills:         info.Fills,
			Evictions:     info.Evictions,
			HotStates:     info.HotStates,
			HotOther:      info.HotOther,
			ComposeNs:     info.ComposeNs,
			ScanChunks:    info.ScanChunks,
			ScanBytes:     info.ScanBytes,
			CandWindows:   info.CandWindows,
		}
	}
	return out
}

// PrefilterStats is a point-in-time snapshot of a rule set's literal
// prefilter cascade: its static shape (what extraction achieved, how the
// shards were classified) and its dynamic effect (how much input the
// automata actually walked). The byte and chunk counters accumulate over
// the set's lifetime across Scan, MatchMask, and RuleStream use; the
// CandidateBytes/TotalBytes ratio is the selectivity signal — near 1.0
// the cascade is pure overhead and WithoutPrefilter (or better rules) is
// the fix.
type PrefilterStats struct {
	Enabled  bool   `json:"enabled"`
	Stage    string `json:"stage,omitempty"`    // the literal matcher's sweep: index, anchor, mask
	Literals int    `json:"literals,omitempty"` // distinct literals matched

	RulesCovered   int `json:"rules_covered"`   // rules the cascade accelerates (literals or prefix bound)
	RulesUncovered int `json:"rules_uncovered"` // rules that always scan in full

	WindowShards int `json:"window_shards"`
	PrefixShards int `json:"prefix_shards"`
	GateShards   int `json:"gate_shards"`
	FullShards   int `json:"full_shards"`

	ShardsSkipped  int64 `json:"shards_skipped"`  // one-shot shard scans skipped outright
	CandidateBytes int64 `json:"candidate_bytes"` // bytes walked by prefiltered shards
	TotalBytes     int64 `json:"total_bytes"`     // bytes they would have walked unfiltered
	ChunksSkipped  int64 `json:"chunks_skipped"`  // window-shard blocks (stream writes, 64 KiB scan blocks) with no candidate work
	ChunksScanned  int64 `json:"chunks_scanned"`  // window-shard blocks with candidate windows

	// The per-block arm choice. A block (one stream write, or 64 KiB of a
	// one-shot scan) either runs the cascade — literal matcher, then the
	// window shards over candidate windows — or bypasses it and walks
	// every window shard over the whole block in one lock-step pass,
	// whichever has measured cheaper on this set's traffic. Bypassed*
	// count the second kind; the two costs are the smoothed measurements
	// the choice runs on, 0 until an arm has run a block of 4 KiB or more.
	BypassedBlocks  int64 `json:"bypassed_blocks"`
	BypassedBytes   int64 `json:"bypassed_bytes"`
	CascadeNsPerKiB int64 `json:"cascade_ns_per_kib"`
	WholeNsPerKiB   int64 `json:"whole_ns_per_kib"`

	MatcherCalls int64 `json:"matcher_calls"` // global literal matcher invocations
	MatcherBytes int64 `json:"matcher_bytes"` // input bytes swept by the matcher
	MatcherHits  int64 `json:"matcher_hits"`  // literal occurrences it surfaced
}

// PrefilterStats reports the literal cascade armed on this set. The zero
// value means no prefilter: the set was compiled WithoutPrefilter, is in
// isolated mode, or was loaded by a path that could not re-extract.
func (rs *RuleSet) PrefilterStats() PrefilterStats {
	if rs.set == nil {
		return PrefilterStats{}
	}
	s := rs.set.PrefilterStats()
	return PrefilterStats{
		Enabled:        s.Enabled,
		Stage:          s.Stage,
		Literals:       s.Literals,
		RulesCovered:   s.RulesCovered,
		RulesUncovered: s.RulesUncovered,
		WindowShards:   s.WindowShards,
		PrefixShards:   s.PrefixShards,
		GateShards:     s.GateShards,
		FullShards:     s.FullShards,
		ShardsSkipped:  s.ShardsSkipped,
		CandidateBytes: s.CandidateBytes,
		TotalBytes:     s.TotalBytes,
		ChunksSkipped:  s.ChunksSkipped,
		ChunksScanned:  s.ChunksScanned,

		BypassedBlocks:  s.BypassedBlocks,
		BypassedBytes:   s.BypassedBytes,
		CascadeNsPerKiB: s.CascadeNsPerKiB,
		WholeNsPerKiB:   s.WholeNsPerKiB,

		MatcherCalls: s.MatcherCalls,
		MatcherBytes: s.MatcherBytes,
		MatcherHits:  s.MatcherHits,
	}
}

// Rule returns the compiled pattern for a name, if present. In combined
// mode the per-rule Regexp is not part of the match path, so it is
// compiled on first access and cached.
func (rs *RuleSet) Rule(name string) (*Regexp, bool) {
	i, ok := rs.idx[name]
	if !ok {
		return nil, false
	}
	if rs.isolated != nil {
		return rs.isolated[i], true
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if re, ok := rs.cache[name]; ok {
		return re, true
	}
	re, err := rs.compileRule(rs.defs[i])
	if err != nil {
		// The combined front end parsed this rule at construction; an
		// isolated compile can only fail on a cap option, in which case
		// there is no per-rule engine to hand out.
		return nil, false
	}
	if rs.cache == nil {
		rs.cache = make(map[string]*Regexp)
	}
	rs.cache[name] = re
	return re, true
}

// MaskWords returns the rule bitmask width in uint64 words — the
// capacity MatchMask and RuleStream.Mask require of their buffers.
func (rs *RuleSet) MaskWords() int { return (len(rs.defs) + 63) / 64 }

// MatchMask scans data once and writes the rule bitmask — bit i set iff
// rule i (in Names() order) matches — into dst, which must have
// MaskWords() capacity; dst[:MaskWords()] is returned. In combined mode
// this is the zero-allocation hot path: the shards are walked together,
// lock-step, on the calling goroutine (the pass is itself chunk-parallel
// on the worker pool) into the caller's buffer. Use Scan to also spread
// a large input's blocks over the pool.
func (rs *RuleSet) MatchMask(data []byte, dst []uint64) []uint64 {
	if rs.isolated == nil {
		return rs.set.Scan(data, 1, dst)
	}
	dst = dst[:rs.MaskWords()]
	for i := range dst {
		dst[i] = 0
	}
	for i, hit := range rs.isolatedHits(data, 0) {
		if hit {
			dst[i>>6] |= 1 << (i & 63)
		}
	}
	return dst
}

// MaskNames decodes a rule bitmask (from MatchMask or RuleStream.Mask)
// into matching rule names, in Names() order.
func (rs *RuleSet) MaskNames(mask []uint64) []string {
	var out []string
	for i := range rs.defs {
		if mask[i>>6]&(1<<(i&63)) != 0 {
			out = append(out, rs.defs[i].Name)
		}
	}
	return out
}

// Scan matches every rule against data and returns the names of matching
// rules in the deterministic Names() order. In combined mode the shards
// are walked together as in MatchMask, and a prefiltered set's 64 KiB
// input blocks are spread over up to `workers` pool workers (0 = all);
// in isolated mode it fans the per-rule engines out over up to `workers`
// goroutines (0 = all).
func (rs *RuleSet) Scan(data []byte, workers int) []string {
	if rs.isolated != nil {
		hits := rs.isolatedHits(data, workers)
		var out []string
		for i, h := range hits {
			if h {
				out = append(out, rs.defs[i].Name)
			}
		}
		return out
	}
	return rs.MaskNames(rs.set.Scan(data, workers, make([]uint64, rs.set.Words())))
}

// isolatedHits runs the per-rule engines over data, up to `workers` at a
// time (0 = all), returning one verdict per rule.
func (rs *RuleSet) isolatedHits(data []byte, workers int) []bool {
	if workers <= 0 || workers > len(rs.isolated) {
		workers = len(rs.isolated)
	}
	hits := make([]bool, len(rs.isolated))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range rs.isolated {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			hits[i] = rs.isolated[i].Match(data)
			<-sem
		}(i)
	}
	wg.Wait()
	return hits
}

// Any reports whether at least one rule matches, booking nothing to the
// rule heat. In combined mode a set with window or prefix shards
// answers with a MatchMask through the same prefilter and walks; any
// other set walks its shards one at a time and stops at the first that
// matches.
func (rs *RuleSet) Any(data []byte) bool {
	if rs.isolated == nil {
		return rs.set.Any(data)
	}
	done := make(chan bool, len(rs.isolated))
	for i := range rs.isolated {
		go func(i int) { done <- rs.isolated[i].Match(data) }(i)
	}
	hit := false
	for range rs.isolated {
		if <-done {
			hit = true
			// Drain the rest; goroutines already run to completion.
		}
	}
	return hit
}
