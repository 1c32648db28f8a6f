package multi

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/engine"
	"repro/internal/nfa"
	"repro/internal/syntax"
)

// logEst is a rule's packing weight under the product bound.
func logEst(r planRule) float64 {
	if r.est < 2 {
		return math.Log(2)
	}
	return math.Log(float64(r.est))
}

// planRule is one rule as the planner sees it: its global index, its
// identity key (empty when caching is off), its (possibly lazy) minimal
// component DFA, and an estimated automaton size. sfa holds the
// estimation dry run's D-SFA when it fit the budget, so a rule that
// ends up in a shard of its own is never built twice; s hands the same
// automaton (built on demand on a warm plan) to the tuple-interned
// combined construction, which closes the shard's D-SFA over tuples of
// component D-SFA states.
type planRule struct {
	idx    int
	key    string
	d      *lazyDFA
	s      *lazySFA
	states int // minimal component DFA size (plan's side constraint)
	est    int
	fits   bool // a capped dry run succeeded (this process or cached)
	sfa    *core.DSFA
}

// lazyDFA defers a rule's component-DFA construction until a shard
// build actually needs it: on a fully warm build (cached estimates +
// cached shards) no component DFA is ever constructed. The pointer is
// shared by every planRule copy, so the build happens at most once even
// across concurrent bins.
type lazyDFA struct {
	node *syntax.Node
	cap  int
	once sync.Once
	d    *dfa.DFA
	err  error
}

func (l *lazyDFA) get() (*dfa.DFA, error) {
	l.once.Do(func() {
		if l.d != nil {
			return
		}
		a, err := nfa.Glushkov(l.node)
		if err != nil {
			l.err = err
			return
		}
		d, err := dfa.Determinize(a, l.cap)
		if err != nil {
			l.err = err
			return
		}
		l.d = dfa.Minimize(d)
	})
	return l.d, l.err
}

// lazySFA defers a rule's component D-SFA construction — the input the
// tuple-interned combined builder consumes — until a shard build
// actually needs it. Seeded with the estimation dry run's automaton when
// that ran in-process (the common cold path); on a warm plan (cached
// estimates) it rebuilds under the identical cap, so the result is the
// automaton the dry run produced. Shared by pointer across planRule
// copies like lazyDFA, so the build happens at most once per rule even
// across the merge pass's recombined bins.
type lazySFA struct {
	d      *lazyDFA
	budget int // the shard SFA budget; the effective cap derives per-DFA
	once   sync.Once
	s      *core.DSFA
	err    error
}

func (l *lazySFA) get() (*core.DSFA, error) {
	l.once.Do(func() {
		if l.s != nil {
			return
		}
		m, err := l.d.get()
		if err != nil {
			l.err = err
			return
		}
		l.s, l.err = core.BuildDSFA(m, sfaCapFor(l.budget, m.NumStates))
	})
	return l.s, l.err
}

// prepRules compiles the listed rules' component DFAs and size
// estimates, fanned out over the worker pool — the per-rule dry runs
// are independent, and construction latency is exactly what the
// snapshot subsystem exists to hide. idxs selects which global rules of
// nodes to prepare (Recompile preps only the fresh subset).
func prepRules(nodes []*syntax.Node, idxs []int, o Options) ([]planRule, error) {
	rules := make([]planRule, len(idxs))
	errs := make([]error, len(idxs))
	buildPool().Map(len(idxs), func(j int) {
		i := idxs[j]
		key := ""
		if o.Keys != nil {
			key = o.Keys[i]
		}
		rules[j], errs[j] = prepRule(nodes[i], i, key, o)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rules, nil
}

func prepRule(node *syntax.Node, idx int, key string, o Options) (planRule, error) {
	// On a warm build the per-rule constructions — the component DFA and
	// the estimation dry run — ARE the remaining cold cost (the shards
	// themselves load from disk). Both the estimate and the DFA's size
	// are pure functions of rule identity and budget, so they are cached
	// as a tiny sibling entry, and a warm plan constructs nothing: the
	// component DFA stays lazy, materialized only if a shard build
	// actually misses.
	if o.Cache != nil && key != "" {
		if est, states, fits, ok := loadCachedEst(key, o); ok {
			o.rep.note(func(r *BuildReport) { r.EstCacheHits++ })
			// The stored est is used verbatim — including the cap+1 form
			// a clipped-cap failure produces — so a warm plan packs the
			// exact bins the cold plan did and every shard key matches.
			d := &lazyDFA{node: node, cap: o.PerRuleDFACap}
			return planRule{
				idx: idx, key: key,
				d:      d,
				s:      &lazySFA{d: d, budget: o.SFABudget},
				states: states,
				est:    est,
				fits:   fits,
			}, nil
		}
	}
	l := &lazyDFA{node: node, cap: o.PerRuleDFACap}
	m, err := l.get()
	if err != nil {
		return planRule{}, fmt.Errorf("multi: rule %d: %w", idx, err)
	}
	est, s, err := estimateSFA(m, sfaCapFor(o.SFABudget, m.NumStates))
	if err != nil {
		return planRule{}, fmt.Errorf("multi: rule %d: %w", idx, err)
	}
	if o.Cache != nil && key != "" {
		storeCachedEst(key, est, m.NumStates, s != nil, o)
	}
	return planRule{
		idx: idx, key: key,
		d:      l,
		s:      &lazySFA{d: l, budget: o.SFABudget, s: s},
		states: m.NumStates,
		est:    est,
		fits:   s != nil,
		sfa:    s,
	}, nil
}

// constructionPool is the dedicated worker pool for build-time fan-out
// (per-rule preparation, per-bin shard builds). It is deliberately NOT
// the match pool: Pool.Run's help-while-waiting protocol lets a waiter
// pop any queued chunk, so multi-second shard-build chunks on the match
// pool would stall concurrent scans (a serving hot reload must never
// freeze another tenant's millisecond Match). Workers park on a channel
// when idle, so the extra pool costs nothing between builds.
var (
	constructionPoolOnce sync.Once
	constructionPool     *engine.Pool
)

// buildPool returns the pool construction work fans out on.
func buildPool() *engine.Pool {
	constructionPoolOnce.Do(func() { constructionPool = engine.NewPool(0) })
	return constructionPool
}

// buildBins materializes every planned bin, bins in parallel over the
// pool (each bin's recursive split-and-retry stays sequential within its
// task). Results keep bin order, so the final shard order is as
// deterministic as the sequential build's was.
func buildBins(bins [][]planRule, o Options) ([]*shardBuild, error) {
	perBin := make([][]*shardBuild, len(bins))
	errs := make([]error, len(bins))
	buildPool().Map(len(bins), func(i int) {
		perBin[i], errs[i] = buildShards(bins[i], o)
	})
	var builds []*shardBuild
	for i, err := range errs {
		if err != nil {
			return nil, err
		}
		builds = append(builds, perBin[i]...)
	}
	return builds, nil
}

// estimateSFA sizes a rule for greedy shard assignment by dry-running
// the D-SFA construction under the shard budget. The D-SFA — not the
// DFA — is the automaton whose size a shard is budgeted on, and no
// static bound predicts it (Sect. VII shows it ranges from |D| to
// exponential), so the capped build is the estimator. Rules over budget
// report est = budget+1 (and a nil D-SFA), forcing a dedicated shard.
// Only a genuine cap overrun means "over budget": any other construction
// failure (a component DFA past core.MaxDFAStates can never build at
// ANY budget) is a real error that must surface to the caller, not be
// re-attempted down the split path.
func estimateSFA(d *dfa.DFA, budget int) (int, *core.DSFA, error) {
	s, err := core.BuildDSFA(d, budget)
	if err != nil {
		if errors.Is(err, core.ErrTooManyStates) {
			return budget + 1, nil, nil
		}
		return 0, nil, err
	}
	return s.NumStates, s, nil
}

// plan assigns rules to bins greedily by estimated automaton size.
//
// The combined D-SFA's states are reachable tuples of component SFA
// states, so the combined size lies between max(est) — every component
// projection is onto — and Πest. For the scan workload's unanchored
// rules the product end dominates (independent monoids compose nearly
// freely), so bins are packed first-fit-decreasing against Σ log est ≤
// log SFABudget (a product bound), with Σ|D| under the product-DFA
// budget as a side constraint. Correlated rules that would have fit
// together anyway only cost extra shards, not failed builds; the rare
// under-prediction is caught by buildShards' budget checks and split.
//
// With ForceShards = K the rules are instead spread over exactly K bins
// by longest-processing-time scheduling: sorted by estimate descending,
// each placed in the currently lightest bin.
func plan(rules []planRule, o Options) [][]planRule {
	sorted := make([]planRule, len(rules))
	copy(sorted, rules)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].est > sorted[j].est })

	var bins [][]planRule
	if k := o.ForceShards; k > 0 {
		if k > len(rules) {
			k = len(rules)
		}
		bins = make([][]planRule, k)
		load := make([]float64, k)
		for _, r := range sorted {
			lightest := 0
			for b := 1; b < k; b++ {
				if load[b] < load[lightest] {
					lightest = b
				}
			}
			bins[lightest] = append(bins[lightest], r)
			load[lightest] += logEst(r)
		}
	} else {
		budget := math.Log(float64(o.SFABudget))
		var estLoad []float64
		var dfaLoad []int
		for _, r := range sorted {
			placed := false
			for b := range bins {
				if estLoad[b]+logEst(r) <= budget && dfaLoad[b]+r.states <= o.DFABudget {
					bins[b] = append(bins[b], r)
					estLoad[b] += logEst(r)
					dfaLoad[b] += r.states
					placed = true
					break
				}
			}
			if !placed {
				bins = append(bins, []planRule{r})
				estLoad = append(estLoad, logEst(r))
				dfaLoad = append(dfaLoad, r.states)
			}
		}
	}
	// Deterministic rule order within each bin; drop empty forced bins.
	out := bins[:0]
	for _, bin := range bins {
		if len(bin) == 0 {
			continue
		}
		sort.Slice(bin, func(i, j int) bool { return bin[i].idx < bin[j].idx })
		out = append(out, bin)
	}
	return out
}

// maxMapEntries bounds the mapping storage a *capped* D-SFA shard may
// hold: cap × |D| int16 entries, 32 Mi of them (64 MiB). It does not
// price a failure — the tuple walk fails before any vector exists, so an
// overrun costs cap × (k + classes) words whatever |D| is — but it fixes
// the plan: sfaCapFor derives every capped attempt's cap from it, so
// which merges and splits happen, and hence every shard, BuildID and
// snapshot byte, depends on this value.
const maxMapEntries = 32 << 20

// sfaCapFor derives the effective D-SFA cap for a shard attempt from the
// state budget and the mapping-cost bound.
func sfaCapFor(budget, dfaStates int) int {
	if c := maxMapEntries / dfaStates; c < budget {
		return c
	}
	return budget
}

// shardBuild pairs a materialized shard with the plan bin it came from,
// so the merge pass can recombine bins.
type shardBuild struct {
	bin    []planRule
	sh     *shard
	frozen bool // a merge attempt involving this shard failed
}

// isBudgetErr reports whether err is a state-budget overrun (the
// condition the planner reacts to by splitting or freezing).
func isBudgetErr(err error) bool {
	return errors.Is(err, ErrBudget) || errors.Is(err, core.ErrTooManyStates)
}

// buildShards materializes one planned bin, recursively halving it (LPT
// by estimate) whenever the product DFA or the combined D-SFA overruns
// its budget. A single-rule shard that still overruns is built uncapped:
// that is exactly the cost the isolated per-rule engine would pay, so
// the fallback never rejects a rule set the old path accepted.
func buildShards(bin []planRule, o Options) ([]*shardBuild, error) {
	maxEst := 0
	for _, r := range bin {
		if r.est > maxEst {
			maxEst = r.est
		}
	}
	if len(bin) == 1 {
		// A cached copy still beats wrapping the estimation dry run: the
		// adopted stable BuildID keeps warm shards observable, and the
		// decode skips the mask/table materialization path below.
		if key := binCacheKey(bin, o); key != "" {
			if sh := loadCachedShard(key, bin, o); sh != nil {
				return []*shardBuild{{bin: bin, sh: sh}}, nil
			}
		}
		// Reuse the estimation dry run's D-SFA when it fit the budget —
		// the shard-of-one build would reproduce it exactly.
		if r := bin[0]; r.sfa != nil {
			sh := singleRuleShard(r, o)
			storeShard(binCacheKey(bin, o), sh, bin, o)
			return []*shardBuild{{bin: bin, sh: sh}}, nil
		}
		// A cached estimate said a capped build succeeds but supplied no
		// dry-run automaton (and the shard-cache probe above missed):
		// rebuild it capped like any in-budget shard. A dry run that
		// failed *this process* (sfa == nil, fits == false) skips this —
		// re-running the identical capped attempt would just re-pay the
		// failure the estimate already measured.
		// probe=false: the single-rule probe above already missed.
		if r := bin[0]; r.fits {
			s, err := buildShard(bin, o, true, false)
			if err == nil {
				return []*shardBuild{{bin: bin, sh: s}}, nil
			}
			if !isBudgetErr(err) {
				return nil, err
			}
			// Stale estimate; fall through to the uncapped fallback.
		}
		// The max(est) lower bound says a capped attempt cannot succeed;
		// go straight to the uncapped isolated-equivalent build. Freeze
		// the result: no merge can fit an over-budget component.
		s, err := buildShard(bin, o, false, false)
		if err != nil {
			return nil, fmt.Errorf("multi: rule %d alone exceeds construction limits: %w", bin[0].idx, err)
		}
		return []*shardBuild{{bin: bin, sh: s, frozen: true}}, nil
	}
	// Multi-rule bin: attempt only when the lower bound fits (forced
	// plans can pack over-budget rules together); otherwise split.
	if maxEst <= o.SFABudget {
		s, err := buildShard(bin, o, true, true)
		if err == nil {
			return []*shardBuild{{bin: bin, sh: s}}, nil
		}
		if !isBudgetErr(err) {
			return nil, err
		}
	}
	o.rep.note(func(r *BuildReport) { r.Splits++ })
	halves := plan(bin, Options{ForceShards: 2})
	var builds []*shardBuild
	for _, half := range halves {
		built, err := buildShards(half, o)
		if err != nil {
			return nil, err
		}
		builds = append(builds, built...)
	}
	return builds, nil
}

// maxMergeFails bounds the merge pass: it stops after this many failed
// merge attempts. Each costs one tuple walk to its cap (FailedNs in the
// report) and no mapping vectors, so the bound is not a memory guard;
// like maxMapEntries it fixes which merges are tried, and so the plan.
const maxMergeFails = 4

// mergeShards greedily recombines shards after the initial build: the
// product-bound packing is deliberately pessimistic (correlated rules —
// shared anchors, shared .* brackets — combine far below the product of
// their sizes), and every shard fewer is one fewer pass over every
// input. Each round tries to merge the two smallest unfrozen shards by
// measured D-SFA size; a budget failure freezes the smaller one. The
// pass stops when fewer than two shards remain unfrozen or after
// maxMergeFails failures, so construction time stays bounded.
func mergeShards(builds []*shardBuild, o Options) ([]*shardBuild, error) {
	fails := 0
	for fails < maxMergeFails {
		var cand []*shardBuild
		for _, b := range builds {
			if !b.frozen {
				cand = append(cand, b)
			}
		}
		if len(cand) < 2 {
			break
		}
		sort.Slice(cand, func(i, j int) bool {
			// Unfrozen shards are always eager (lazy builds are frozen),
			// so the unwrap cannot return nil here.
			si, sj := eagerEngine(cand[i].sh.m).SFA().NumStates, eagerEngine(cand[j].sh.m).SFA().NumStates
			if si != sj {
				return si < sj
			}
			return cand[i].bin[0].idx < cand[j].bin[0].idx
		})
		a, b := cand[0], cand[1]
		bin := make([]planRule, 0, len(a.bin)+len(b.bin))
		bin = append(append(bin, a.bin...), b.bin...)
		sort.Slice(bin, func(i, j int) bool { return bin[i].idx < bin[j].idx })
		merged, err := buildShard(bin, o, true, true)
		if err != nil {
			if !isBudgetErr(err) {
				return nil, err
			}
			a.frozen = true
			fails++
			o.rep.note(func(r *BuildReport) { r.MergeFails++ })
			continue
		}
		o.rep.note(func(r *BuildReport) { r.Merges++ })
		next := builds[:0]
		for _, x := range builds {
			if x != a && x != b {
				next = append(next, x)
			}
		}
		builds = append(next, &shardBuild{bin: bin, sh: merged})
	}
	return builds, nil
}

// singleRuleShard wraps a rule's own estimation D-SFA as a one-rule
// shard: the mask table is just the DFA's accept vector on bit 0. Only
// called when r.sfa is set, which implies the component DFA was built.
func singleRuleShard(r planRule, o Options) *shard {
	start := time.Now()
	d, _ := r.d.get()
	masks := make([]uint64, d.NumStates)
	for q, acc := range d.Accept {
		if acc {
			masks[q] = 1
		}
	}
	m := engine.NewMultiSFA(r.sfa, masks, 1, o.Threads, o.engineOpts()...)
	elapsed := time.Since(start).Nanoseconds()
	o.rep.note(func(r *BuildReport) {
		r.Built++
		r.ShardBuildNs = append(r.ShardBuildNs, elapsed)
	})
	return &shard{m: m, rules: []int{r.idx}}
}

// binCacheKey returns the bin's cache address — rule membership plus
// the build budgets (see shardCacheKey) — or "" when caching is off or
// any rule lacks an identity key.
func binCacheKey(bin []planRule, o Options) string {
	if o.Cache == nil {
		return ""
	}
	keys := make([]string, len(bin))
	for i, r := range bin {
		if r.key == "" {
			return ""
		}
		keys[i] = r.key
	}
	return shardCacheKey(ShardKey(keys), o)
}

// loadCachedShard probes the content-addressed cache for a prebuilt
// shard covering exactly bin's rule membership. Any failure — missing
// entry, corrupt blob, membership mismatch — reports a miss and falls
// back to building; the cache can never make a build wrong, only fast.
func loadCachedShard(key string, bin []planRule, o Options) *shard {
	rc, ok := o.Cache.Load(key)
	if !ok {
		return nil
	}
	defer rc.Close()
	ds, err := DecodeShard(rc, o)
	if err != nil {
		return nil
	}
	rules, ok := matchShardKeys(ds.Keys, bin)
	if !ok {
		return nil
	}
	o.rep.note(func(r *BuildReport) { r.CacheHits++ })
	return &shard{m: ds.m, rules: rules}
}

// matchShardKeys maps a decoded shard's local-bit keys onto bin's global
// rule indices (multiset matching; duplicates pair front-to-back).
func matchShardKeys(local []string, bin []planRule) ([]int, bool) {
	if len(local) != len(bin) {
		return nil, false
	}
	byKey := make(map[string][]int, len(bin))
	for _, r := range bin {
		byKey[r.key] = append(byKey[r.key], r.idx)
	}
	rules := make([]int, len(local))
	for i, k := range local {
		q := byKey[k]
		if len(q) == 0 {
			return nil, false
		}
		rules[i], byKey[k] = q[0], q[1:]
	}
	return rules, true
}

// storeShard writes a freshly built shard to the cache, best-effort: a
// full disk or racing writer never fails the build.
func storeShard(key string, sh *shard, bin []planRule, o Options) {
	if key == "" {
		return
	}
	m := eagerEngine(sh.m)
	if m == nil {
		return
	}
	local := make([]string, len(bin))
	for i, r := range bin {
		local[i] = r.key
	}
	_ = o.Cache.Store(key, func(w io.Writer) error {
		return encodeShard(w, m, local)
	})
}

// buildShard runs the combined pipeline — product DFA, mask-aware
// minimization, tuple-interned D-SFA (vector-interned for single-rule
// bins or under Options.VectorIntern) — for one bin, after probing the
// shard cache: a content hit skips construction entirely and adopts the
// persisted automaton (and its stable BuildID). capped=false lifts the
// budgets to the construction's hard limits (the single-rule fallback);
// cache entries are keyed by rule membership plus both budgets, so a
// hit can only adopt a shard some same-budget process built.
func buildShard(bin []planRule, o Options, capped, probe bool) (*shard, error) {
	cacheKey := binCacheKey(bin, o)
	if cacheKey != "" {
		if probe {
			if sh := loadCachedShard(cacheKey, bin, o); sh != nil {
				return sh, nil
			}
		}
		// A recorded budget failure for this membership under these
		// budgets short-circuits the doomed capped attempt (the merge
		// pass re-discovers the same failures on every cold start
		// otherwise — each costing a full construction attempt).
		if capped && hasFailMarker(cacheKey, o) {
			return nil, fmt.Errorf("%w (cached failure for this membership)", ErrBudget)
		}
	}
	buildStart := time.Now()
	// markBudgetErr records a capped budget failure: its wall time in the
	// report, and a marker for the next build.
	markBudgetErr := func(err error) error {
		if capped && isBudgetErr(err) {
			elapsed := time.Since(buildStart).Nanoseconds()
			o.rep.note(func(r *BuildReport) { r.FailedNs += elapsed })
			if cacheKey != "" {
				storeFailMarker(cacheKey, o)
			}
		}
		return err
	}
	ds := make([]*dfa.DFA, len(bin))
	rules := make([]int, len(bin))
	for i, r := range bin {
		d, err := r.d.get()
		if err != nil {
			return nil, fmt.Errorf("multi: rule %d: %w", r.idx, err)
		}
		ds[i] = d
		rules[i] = r.idx
	}
	dfaBudget := 0
	if capped {
		dfaBudget = o.DFABudget
	}
	d, masks, err := productDFA(ds, dfaBudget)
	if err != nil {
		return nil, markBudgetErr(err)
	}
	words := maskWords(len(bin))
	d, masks = minimizeMasked(d, masks, words)
	sfaCap := o.SFAHardCap
	if capped {
		sfaCap = sfaCapFor(o.SFABudget, d.NumStates)
	}
	s, err := shardDSFA(bin, d, sfaCap, o)
	if err != nil {
		return nil, markBudgetErr(err)
	}
	m := engine.NewMultiSFA(s, masks, words, o.Threads, o.engineOpts()...)
	sh := &shard{m: m, rules: rules}
	storeShard(cacheKey, sh, bin, o)
	elapsed := time.Since(buildStart).Nanoseconds()
	o.rep.note(func(r *BuildReport) {
		r.Built++
		r.ShardBuildNs = append(r.ShardBuildNs, elapsed)
	})
	return sh, nil
}
