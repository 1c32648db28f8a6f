// Package sfa is the public API of the simultaneous-finite-automaton
// regular-expression matcher, a reproduction of
//
//	Sin'ya, Matsuzaki, Sassa: "Simultaneous Finite Automata: An Efficient
//	Data-Parallel Model for Regular Expression Matching", ICPP 2013.
//
// A compiled Regexp owns the full pipeline of the paper — Glushkov NFA,
// minimized DFA (subset construction + Hopcroft), and D-SFA
// (correspondence construction) — and matches whole inputs in parallel by
// splitting them at arbitrary byte positions (Theorem 3), running each
// chunk on one goroutine with a single table lookup per byte, and
// reducing the per-chunk SFA states in O(p).
//
// Basic use:
//
//	re, err := sfa.Compile(`([0-4]{5}[5-9]{5})*`)
//	...
//	ok := re.Match(data) // parallel across runtime.GOMAXPROCS(0) goroutines
//
// Matching semantics are whole-input acceptance, as in the paper's
// evaluation. Use the Search option for unanchored substring semantics.
package sfa

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/engine"
	"repro/internal/nfa"
	"repro/internal/syntax"
)

// Flag mirrors the supported PCRE modifiers.
type Flag uint8

// Compile-time pattern flags.
const (
	// FoldCase makes matching case-insensitive ((?i), pcre /i).
	FoldCase Flag = 1 << iota
	// DotAll lets '.' match '\n' ((?s), pcre /s).
	DotAll
)

// Engine selects the matching algorithm.
type Engine int

// Available engines. EngineSFA is the paper's Algorithm 5 and the
// default; the others exist for comparison and ablation.
const (
	// EngineSFA matches with a precomputed D-SFA (Algorithm 5).
	EngineSFA Engine = iota
	// EngineLazySFA matches with an on-the-fly D-SFA (Sect. V-A).
	EngineLazySFA
	// EngineDFA is the sequential baseline (Algorithm 2).
	EngineDFA
	// EngineSpecDFA is the prior-work speculative parallel DFA
	// (Algorithm 3).
	EngineSpecDFA
	// EngineNFA is the bitset NFA simulation.
	EngineNFA
)

func (e Engine) String() string {
	switch e {
	case EngineSFA:
		return "sfa"
	case EngineLazySFA:
		return "lazy-sfa"
	case EngineDFA:
		return "dfa"
	case EngineSpecDFA:
		return "spec-dfa"
	case EngineNFA:
		return "nfa"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// config carries compile options.
type config struct {
	flags   Flag
	threads int
	eng     Engine
	tree    bool
	search  bool
	dfaCap  int
	sfaCap  int
	lazyMax int

	// RuleSet-only knobs (ignored by Compile).
	isolatedRules bool
	shards        int
	shardBudget   int
	cacheDir      string
	noPrefilter   bool
	lazyCompile   bool
	tableBudget   *TableBudget
	scanStats     *ScanStats
}

// reduction is the engines' chunk-result reduction (WithTreeReduction).
func (c config) reduction() engine.Reduction {
	if c.tree {
		return engine.ReduceTree
	}
	return engine.ReduceSequential
}

// buildConfig folds the options and resolves defaults.
func buildConfig(opts []Option) config {
	cfg := config{}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.threads <= 0 {
		cfg.threads = runtime.GOMAXPROCS(0)
	}
	return cfg
}

// Option configures Compile.
type Option func(*config)

// WithFlags sets pattern flags (FoldCase, DotAll).
func WithFlags(f Flag) Option { return func(c *config) { c.flags = f } }

// WithThreads fixes the parallelism degree p of Algorithms 3/5.
// The default (0) uses runtime.GOMAXPROCS(0).
func WithThreads(p int) Option { return func(c *config) { c.threads = p } }

// WithEngine selects the matching algorithm (default EngineSFA).
func WithEngine(e Engine) Option { return func(c *config) { c.eng = e } }

// WithTreeReduction switches Algorithms 3/5 from the O(p) sequential
// reduction to the parallel ⊙-tree reduction.
func WithTreeReduction() Option { return func(c *config) { c.tree = true } }

// WithSearch compiles for unanchored substring search: the pattern is
// implicitly bracketed with .* on unanchored sides (a leading ^ or
// trailing $ in the pattern suppresses the respective bracket).
func WithSearch() Option { return func(c *config) { c.search = true } }

// WithDFACap bounds the intermediate DFA size (the paper's SNORT study
// uses 1000). 0 means unbounded.
func WithDFACap(n int) Option { return func(c *config) { c.dfaCap = n } }

// WithSFACap bounds the D-SFA size for the precomputed engine; beyond it
// Compile fails so the caller can fall back to EngineLazySFA or
// EngineDFA. 0 means unbounded.
func WithSFACap(n int) Option { return func(c *config) { c.sfaCap = n } }

// WithIsolatedRules makes NewRuleSet compile one independent engine per
// rule and scan with N full passes per input — the pre-combined
// architecture, kept as the oracle the combined automaton is
// cross-checked against. Compile ignores this option.
func WithIsolatedRules() Option { return func(c *config) { c.isolatedRules = true } }

// WithShards makes NewRuleSet plan exactly k combined shards up front
// instead of starting from one combined automaton (blow-up splitting may
// still raise the count). 0 — the default — plans automatically. Compile
// ignores this option.
func WithShards(k int) Option { return func(c *config) { c.shards = k } }

// WithShardStateBudget bounds each combined shard's D-SFA state count;
// a shard that would exceed it is split and its rules spread greedily by
// estimated automaton size. 0 uses the default budget (32 768 states,
// the u16-layout ceiling). Compile ignores this option.
func WithShardStateBudget(n int) Option { return func(c *config) { c.shardBudget = n } }

// WithShardCache points NewRuleSet's combined compiler at a
// content-addressed on-disk shard cache rooted at dir (created if
// absent): every combined shard is looked up by the hash of its rule
// membership, build budgets, and construction mode before being built
// and stored after, so repeated builds of the same rules — across
// processes and restarts — skip construction for every shard some
// earlier same-configuration build already produced. The directory is
// safe to share between differently-configured processes: budgets are
// part of the key, so a build can never adopt a shard constructed
// under a larger memory bound. Compile and isolated-mode rule sets
// ignore this option.
func WithShardCache(dir string) Option { return func(c *config) { c.cacheDir = dir } }

// WithLazyCompile lets NewRuleSet accept rules whose combined D-SFA the
// eager builder cannot afford: instead of failing with a too-many-states
// error (or building an unbounded automaton), such rules are served by
// lazy shards that materialize product states on demand during scanning
// and keep them under a table budget — evicting cold state when the
// budget fills, rebuilding it from traffic when it is needed again.
// Rules whose automata fit the shard budget keep the precomputed eager
// path, so enabling this never changes how an affordable set is built.
// Verdicts are byte-identical to the eager engine's on everything the
// eager path can compile, and to per-rule isolated scanning always.
//
// Lazy shards charge the budget from WithTableBudget, defaulting to the
// process-global one (GlobalTableBudget, unlimited until bounded). A
// lazily compiled set cannot be persisted with Save — its states are a
// traffic-dependent cache, not an artifact — so callers persist rule
// sources and recompile on load. Compile and isolated-mode rule sets
// ignore this option.
func WithLazyCompile() Option { return func(c *config) { c.lazyCompile = true } }

// WithTableBudget makes this set's lazy shards (WithLazyCompile) charge
// their materialized states against b instead of the process-global
// budget — internal/serve hands each tenant a Child of the global one.
// Compile ignores this option.
func WithTableBudget(b *TableBudget) Option { return func(c *config) { c.tableBudget = b } }

// WithGlobalTableBudget bounds the process-wide table budget at
// limitBytes (<= 0 = unlimited) and enables lazy compilation for this
// set — shorthand for SetLimit on GlobalTableBudget plus
// WithLazyCompile. The limit is process state: it applies to every lazy
// set charging the global budget, not only this one.
func WithGlobalTableBudget(limitBytes int64) Option {
	return func(c *config) {
		GlobalTableBudget().SetLimit(limitBytes)
		c.lazyCompile = true
	}
}

// WithoutPrefilter disables the literal prefilter cascade that combined
// rule sets arm by default: every shard scans every input byte, exactly
// as before the prefilter existed. The prefilter never changes verdicts
// — only which input regions the automata walk — so this knob exists for
// A/B measurement (sfabench ruleset, BenchmarkRuleSet_*_NoPrefilter) and
// as an escape hatch for low-selectivity rule sets where candidate
// windows cover most of the input anyway (the per-tenant prefilter stats
// expose exactly that ratio). Compile and isolated-mode rule sets ignore
// this option.
func WithoutPrefilter() Option { return func(c *config) { c.noPrefilter = true } }

// Regexp is a compiled pattern. It is safe for concurrent use.
type Regexp struct {
	pattern string
	cfg     config

	node *syntax.Node
	nfa  *nfa.NFA
	dfa  *dfa.DFA
	dsfa *core.DSFA // nil unless EngineSFA

	matcher engine.Matcher
}

// Compile builds a Regexp with the paper's pipeline.
func Compile(pattern string, opts ...Option) (*Regexp, error) {
	cfg := buildConfig(opts)

	var sflags syntax.Flags
	if cfg.flags&FoldCase != 0 {
		sflags |= syntax.FoldCase
	}
	if cfg.flags&DotAll != 0 {
		sflags |= syntax.DotAll
	}
	node, err := syntax.Parse(pattern, sflags)
	if err != nil {
		return nil, err
	}
	if cfg.search {
		node = syntax.BracketForSearch(node)
	}

	re := &Regexp{pattern: pattern, cfg: cfg, node: node}
	re.nfa, err = nfa.Glushkov(node)
	if err != nil {
		return nil, err
	}
	if cfg.eng == EngineNFA {
		re.matcher = engine.NewNFASimFrom(re.nfa)
		return re, nil
	}

	d, err := dfa.Determinize(re.nfa, cfg.dfaCap)
	if err != nil {
		return nil, err
	}
	re.dfa = dfa.Minimize(d)

	switch cfg.eng {
	case EngineSFA:
		re.dsfa, err = core.BuildDSFA(re.dfa, cfg.sfaCap)
		if err != nil {
			return nil, err
		}
		re.matcher = engine.NewSFAParallel(re.dsfa, cfg.threads, cfg.reduction())
	case EngineLazySFA:
		m, err := engine.NewSFALazy(re.dfa, cfg.threads, cfg.lazyMax)
		if err != nil {
			return nil, err
		}
		re.matcher = m
	case EngineDFA:
		re.matcher = engine.NewDFASequential(re.dfa)
	case EngineSpecDFA:
		re.matcher = engine.NewDFASpeculative(re.dfa, cfg.threads, cfg.reduction())
	default:
		return nil, fmt.Errorf("sfa: unknown engine %v", cfg.eng)
	}
	return re, nil
}

// MustCompile is Compile that panics on error, for initialization of
// package-level patterns.
func MustCompile(pattern string, opts ...Option) *Regexp {
	re, err := Compile(pattern, opts...)
	if err != nil {
		panic(err)
	}
	return re
}

// Match reports whether the pattern matches data — whole-input acceptance
// by default, substring search when compiled WithSearch.
func (re *Regexp) Match(data []byte) bool { return re.matcher.Match(data) }

// MatchString is Match for strings.
func (re *Regexp) MatchString(s string) bool { return re.matcher.Match([]byte(s)) }

// Pattern returns the source pattern.
func (re *Regexp) Pattern() string { return re.pattern }

// EngineName identifies the selected engine and its parameters.
func (re *Regexp) EngineName() string { return re.matcher.Name() }

// String implements fmt.Stringer.
func (re *Regexp) String() string { return re.pattern }

// Sizes reports the automata sizes of the compiled pipeline, using the
// paper's live-state convention.
type Sizes struct {
	NFAStates int // Glushkov states (positions + 1)
	DFALive   int // minimal DFA, dead sink excluded
	DFATotal  int
	SFALive   int // D-SFA, everywhere-dead mapping excluded (0 if not built)
	SFATotal  int
	Classes   int // byte equivalence classes
}

// Sizes returns the pipeline's automata sizes. NFAStates is 0 for a
// Regexp reconstructed with Load (the NFA is not serialized).
func (re *Regexp) Sizes() Sizes {
	var s Sizes
	if re.nfa != nil {
		s.NFAStates = re.nfa.NumStates
	}
	if re.dfa != nil {
		s.DFALive = re.dfa.LiveSize()
		s.DFATotal = re.dfa.NumStates
		s.Classes = re.dfa.BC.Count
	}
	if re.dsfa != nil {
		s.SFALive = re.dsfa.LiveSize()
		s.SFATotal = re.dsfa.NumStates
	}
	return s
}

// DFA exposes the minimal DFA (nil for EngineNFA). Read-only.
func (re *Regexp) DFA() *dfa.DFA { return re.dfa }

// DSFA exposes the D-SFA when the precomputed SFA engine is selected.
// Read-only.
func (re *Regexp) DSFA() *core.DSFA { return re.dsfa }
