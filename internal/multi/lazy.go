package multi

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/engine"
)

// Lazy shard mode: the planner's answer to rules whose combined D-SFA
// the eager builder cannot afford. A rule whose estimation dry run
// overran the shard budget (fits == false) used to force a dedicated
// shard built *uncapped* — the isolated-equivalent fallback — which
// still fails outright when the rule's own D-SFA exceeds the hard
// construction limits. Under Options.Lazy such rules are routed to lazy
// shards instead: an engine.LazyMultiSFA over a core.LazyTuple, which
// materializes only the product states the traffic reaches and keeps
// them under the table budget. Rules that fit stay on the eager path —
// the sticky fallback — so enabling Lazy never changes how a set that
// compiled yesterday is built today.

// Limits of one lazy shard. The carried mapping is Σ|Di| long and every
// resident tuple state costs O(k) to step on a miss, so both the rule
// count and the summed component-DFA size are bounded per shard;
// overflow opens another lazy shard (they scan concurrently like any
// other shards).
const (
	maxLazyShardRules     = 32
	maxLazyShardDFAStates = 8192
)

// shardEngine is the scan-and-stream surface a shard's matcher provides.
// engine.MultiSFA (eager, table-backed) and engine.LazyMultiSFA (lazy,
// budgeted) implement it; everything in this package except the codec
// and the merge pass — which need eager tables — works against the
// interface.
type shardEngine interface {
	engine.ShardEngine // MatchMask, ComposeChunk, Charge: what a lock-step pass falls back to, and the account it books
	Words() int

	MappingLen() int
	InitMapping(cur []int16)
	MatchMaskFrom(cur []int16, dst []uint64) []uint64
	ComposeMask(h, f, g []int16)

	BuildID() uint64
	TableBytes() int64
	Info() engine.Info
}

// eagerEngine unwraps a shard's engine when it is the serializable,
// mergeable eager kind; nil for lazy shards.
func eagerEngine(m shardEngine) *engine.MultiSFA {
	e, _ := m.(*engine.MultiSFA)
	return e
}

// planLazy splits the prepared rules into the eager population and the
// lazily-built remainder: a rule goes lazy exactly when its estimation
// dry run said no capped per-rule build fits the shard budget — the
// population the eager planner would isolate and build uncapped (or
// reject). Order is preserved within both halves.
func planLazy(rules []planRule, o Options) (eager, lazy []planRule) {
	if !o.Lazy {
		return rules, nil
	}
	for _, r := range rules {
		if r.fits {
			eager = append(eager, r)
		} else {
			lazy = append(lazy, r)
		}
	}
	return eager, lazy
}

// buildLazyShards bins the lazy rules (first-fit in index order under
// the per-shard limits) and wraps each bin in a lazy engine. The
// resulting shardBuilds are frozen: the merge pass measures eager table
// sizes, which lazy shards do not have.
func buildLazyShards(rules []planRule, o Options) ([]*shardBuild, error) {
	var bins [][]planRule
	var binStates []int
	for _, r := range rules {
		placed := false
		for b := range bins {
			if len(bins[b]) < maxLazyShardRules && binStates[b]+r.states <= maxLazyShardDFAStates {
				bins[b] = append(bins[b], r)
				binStates[b] += r.states
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, []planRule{r})
			binStates = append(binStates, r.states)
		}
	}
	builds := make([]*shardBuild, 0, len(bins))
	for _, bin := range bins {
		sh, err := buildLazyShard(bin, o)
		if err != nil {
			return nil, err
		}
		builds = append(builds, &shardBuild{bin: bin, sh: sh, frozen: true})
	}
	return builds, nil
}

// buildLazyShard wraps one bin of rules in a lazy combined engine. Only
// the component DFAs are constructed — no product, no D-SFA dry run, no
// tables — so "building" a lazy shard is cheap no matter how large its
// automata would be.
func buildLazyShard(bin []planRule, o Options) (*shard, error) {
	dfas := make([]*dfa.DFA, len(bin))
	rules := make([]int, len(bin))
	for i, r := range bin {
		d, err := r.d.get()
		if err != nil {
			return nil, fmt.Errorf("multi: rule %d: %w", r.idx, err)
		}
		dfas[i] = d
		rules[i] = r.idx
	}
	lt, err := core.NewLazyTuple(dfas, core.LazyTupleOptions{Budget: o.budget()})
	if err != nil {
		return nil, fmt.Errorf("multi: lazy shard: %w", err)
	}
	m := engine.NewLazyMultiSFA(lt, o.Threads, o.engineOpts()...)
	return &shard{m: m, rules: rules}, nil
}
