package multi

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/prefilter"
	"repro/internal/syntax"
)

// ErrBudget is wrapped by construction errors when a state budget is
// exceeded; the planner reacts to it by splitting the shard.
var ErrBudget = errors.New("multi: state budget exceeded")

// Options parameterizes Compile.
type Options struct {
	// DFABudget bounds the product DFA of one shard (0 = default). It is
	// clamped to core.MaxDFAStates, the D-SFA construction's own limit.
	DFABudget int
	// SFABudget bounds the combined D-SFA of one shard (0 = default).
	// Shards whose D-SFA would exceed it are split.
	SFABudget int
	// SFAHardCap is the caller's fail-fast ceiling (sfa.WithSFACap): it
	// also binds the uncapped single-rule fallback, so a pathological
	// rule errors out instead of building an unbounded automaton.
	// 0 = no ceiling. When set below SFABudget it lowers the budget.
	SFAHardCap int
	// ForceShards plans exactly K shards up front instead of starting
	// from one combined automaton (blow-up splitting still applies, so
	// more shards may result). 0 = automatic.
	ForceShards int
	// PerRuleDFACap bounds each rule's own DFA, failing Compile when
	// exceeded — the same contract as the isolated engines' WithDFACap
	// (0 = unbounded). Without it a single pathological rule (a counted
	// window containing its own trigger) can make subset construction
	// exponential before any shard is planned.
	PerRuleDFACap int
	// Threads is the chunk parallelism of each shard's pass
	// (0 = GOMAXPROCS).
	Threads int
	// Pool overrides the engine's process-wide worker pool.
	Pool *engine.Pool
	// Keys are opaque per-rule identity strings — Keys[i] identifies
	// nodes[i] by pattern source plus every semantics-affecting flag,
	// the same contract Recompile's reuse matches on. They enable the
	// content-addressed shard cache; nil leaves caching off.
	Keys []string
	// Cache is the content-addressed shard store consulted before each
	// shard build and filled after it (internal/snapshot.Store on disk).
	// Requires Keys. Shard entries are keyed by rule membership AND the
	// build budgets (DFABudget, SFABudget), so a cache directory shared
	// between differently-configured processes can never serve a shard
	// built under a larger budget into a process with a smaller one.
	// Decoding re-materializes match tables under the loading process's
	// options. nil disables caching.
	Cache ShardCache
	// Lazy enables the lazy shard mode: rules whose estimated combined
	// D-SFA exceeds the shard budget — the ones the eager planner would
	// build uncapped or reject with ErrTooManyStates — are instead
	// served by on-demand product-state construction under the table
	// budget (see lazy.go). Rules that fit keep the eager path, so the
	// fallback is sticky: enabling Lazy never changes how an affordable
	// set is built.
	Lazy bool
	// Budget is the byte budget lazy shards charge their materialized
	// states against (shared across shards; serve hands each tenant a
	// child of the process budget). nil with Lazy set uses the
	// process-global budget, core.GlobalTableBudget.
	Budget *core.TableBudget
	// Prefilter arms the literal prefilter cascade: Prefilter[i] is the
	// required-literal extraction for nodes[i] (computed by
	// prefilter.Extract on the rule as parsed, before search
	// bracketing). When set, the planner also segregates windowable
	// rules from the rest so one literal-free rule cannot force full
	// scans of an otherwise windowed shard, and Scan/SetStream run each
	// shard only near literal hits. nil (or a length mismatch) leaves
	// scanning unfiltered. The prefilter never changes verdicts — only
	// which input regions the automata walk.
	Prefilter []prefilter.Rule
	// Stats, when non-nil, makes every shard engine record per-chunk
	// streaming measurements (compose latency, chunk bytes, boundary
	// states) into the given aggregate. One *obs.ScanStats typically
	// serves a whole tenant; recording is lock-free and allocation-free
	// (see internal/obs).
	Stats *obs.ScanStats

	// rep collects the structured BuildReport across the pipeline's
	// concurrent fan-out. Unexported: Compile/Recompile install it, and
	// every by-value Options copy shares the pointer. nil (the
	// planner's internal re-plans) disables collection.
	rep *buildRecorder
}

// defaultDFABudget bounds the per-shard product DFA. core.BuildDSFA
// stores mapping entries as int16, so this may never exceed
// core.MaxDFAStates; 20 000 also keeps one shard's class-indexed table
// within a few MiB.
const defaultDFABudget = 20_000

// defaultSFABudget bounds the per-shard D-SFA: 1<<15 states resolve to
// the u16 table layout at 512 B per state — a 16 MiB ceiling per shard.
const defaultSFABudget = 1 << 15

func (o Options) withDefaults() Options {
	if o.DFABudget <= 0 || o.DFABudget > maxProductStates {
		o.DFABudget = defaultDFABudget
	}
	if o.SFABudget <= 0 {
		o.SFABudget = defaultSFABudget
	}
	if o.SFAHardCap > 0 && o.SFAHardCap < o.SFABudget {
		o.SFABudget = o.SFAHardCap
	}
	if o.Threads <= 0 {
		o.Threads = runtime.GOMAXPROCS(0)
	}
	return o
}

// budget resolves the table budget lazy shards charge against.
func (o Options) budget() *core.TableBudget {
	if o.Budget != nil {
		return o.Budget
	}
	return core.GlobalTableBudget()
}

// engineOpts translates the engine-facing knobs.
func (o Options) engineOpts() []engine.Option {
	var opts []engine.Option
	if o.Pool != nil {
		opts = append(opts, engine.WithPool(o.Pool))
	}
	if o.Stats != nil {
		opts = append(opts, engine.WithScanStats(o.Stats))
	}
	return opts
}

// BuildPoolStats snapshots the dedicated construction pool's scheduling
// counters (the match pool's are read via engine.DefaultPool directly).
func BuildPoolStats() engine.PoolStats { return buildPool().Stats() }

// Compile builds a Set matching every pattern in nodes (already parsed,
// and search-bracketed by the caller if substring semantics are wanted —
// package sfa owns parsing, flags, and bracketing). Rule r of the result
// is nodes[r].
func Compile(nodes []*syntax.Node, o Options) (*Set, error) {
	if len(nodes) == 0 {
		return nil, errors.New("multi: empty rule set")
	}
	if o.Keys != nil && len(o.Keys) != len(nodes) {
		return nil, fmt.Errorf("multi: %d keys for %d rules", len(o.Keys), len(nodes))
	}
	o = o.withDefaults()
	if o.rep == nil {
		o.rep = &buildRecorder{}
	}
	start := time.Now()

	// Per-rule components: the minimal DFA is both the product-
	// construction input and, via a budget-capped D-SFA dry run, the
	// planner's size estimate. Prepared concurrently over the pool —
	// the per-rule dry runs are independent.
	idxs := make([]int, len(nodes))
	for i := range idxs {
		idxs[i] = i
	}
	rules, err := prepRules(nodes, idxs, o)
	if err != nil {
		return nil, err
	}
	prepDone := time.Now()

	builds, err := planAndBuild(rules, o)
	if err != nil {
		return nil, err
	}
	sort.Slice(builds, func(i, j int) bool { return builds[i].bin[0].idx < builds[j].bin[0].idx })
	shards := make([]*shard, len(builds))
	for i, b := range builds {
		shards[i] = b.sh
	}
	s := newSet(shards, len(nodes), o.Pool)
	s.planShards = len(shards)
	s.stats = o.Stats
	s.armPrefilter(o.Prefilter)
	o.rep.note(func(r *BuildReport) {
		r.Rules = len(nodes)
		r.Shards = len(shards)
		r.PrepNs += prepDone.Sub(start).Nanoseconds()
		r.BuildNs += time.Since(prepDone).Nanoseconds()
		r.TotalNs += time.Since(start).Nanoseconds()
	})
	s.report = o.rep.snapshot()
	return s, nil
}

// planAndBuild runs the plan → build → merge pipeline. With a
// prefilter armed, rules are planned in four groups matching the shard
// modes — windowable, prefix-bounded, gateable, uncovered — and merging
// never crosses a boundary: a shard gets a mode only when *every* rule
// in it qualifies, so one uncovered rule sharing a shard with windowable
// (or gateable) ones would demote the whole shard to full scans.
func planAndBuild(rules []planRule, o Options) ([]*shardBuild, error) {
	rules, lazyRules := planLazy(rules, o)
	var builds []*shardBuild
	for _, g := range prefilterGroups(rules, o) {
		bins := plan(g, o)
		o.rep.note(func(r *BuildReport) { r.PlanBins += len(bins) })
		gb, err := buildBins(bins, o)
		if err != nil {
			return nil, err
		}
		if o.ForceShards == 0 && len(gb) > 1 {
			// The packing is pessimistic on purpose; recover
			// over-sharding by merging while the measured sizes say it
			// fits.
			gb, err = mergeShards(gb, o)
			if err != nil {
				return nil, err
			}
		}
		builds = append(builds, gb...)
	}
	// Lazy shards are grouped by prefilter class exactly like eager
	// ones — a windowable lazy shard scans only candidate windows — and
	// never merged (there is no measured table size to merge on).
	for _, g := range prefilterGroups(lazyRules, o) {
		gb, err := buildLazyShards(g, o)
		if err != nil {
			return nil, err
		}
		o.rep.note(func(r *BuildReport) { r.LazyShards += len(gb) })
		builds = append(builds, gb...)
	}
	return builds, nil
}

// prefilterGroups partitions rules into the four prefilter classes —
// windowable, prefix-bounded, gateable, uncovered — so that merging and
// binning never put a rule that would demote a shard's scan mode next
// to rules that qualify for a faster one. Without a prefilter (or under
// ForceShards) everything is one group.
func prefilterGroups(rules []planRule, o Options) [][]planRule {
	if len(rules) == 0 {
		return nil
	}
	if len(o.Prefilter) == 0 || o.ForceShards != 0 {
		return [][]planRule{rules}
	}
	var byClass [4][]planRule
	for _, r := range rules {
		class := 3 // uncovered
		if r.idx < len(o.Prefilter) {
			switch inf := o.Prefilter[r.idx]; {
			case inf.Window:
				class = 0
			case inf.Prefix:
				class = 1
			case inf.Covered():
				class = 2
			}
		}
		byClass[class] = append(byClass[class], r)
	}
	var groups [][]planRule
	for _, g := range byClass {
		if len(g) > 0 {
			groups = append(groups, g)
		}
	}
	return groups
}
