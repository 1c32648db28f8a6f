package multi

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/intern"
)

// Tuple-interned combined D-SFA construction.
//
// The vector-interning correspondence construction (core.BuildDSFA) is
// the cold-build bottleneck of combined sets: every candidate SFA state
// is a full |D|-long transformation vector of the product DFA, so each
// of the NumStates × classes transition steps computes AND hashes |D|
// int16 entries. But the product DFA's states are tuples of component-
// DFA states and its transitions act componentwise, so the transformation
// a word induces on the product is fully determined by the k-tuple of
// component D-SFA states that word reaches — Theorem 2's correspondence,
// taken per component. Interning those short tuples replaces the O(|D|)
// per-transition work with k table lookups and an O(k) hash. This is the
// construction direction Jung & Burgstaller's multicore D-SFA work
// attacks with Rabin fingerprints (PAPERS.md); component tuples are an
// exact identity here, not a probabilistic one (internal/intern confirms
// every fingerprint hit by comparing the tuple).
//
// The walk computes no |D|-long mapping vector at all. The automaton's
// accept bits and dead mapping are derived from its finished table
// (core.NewDSFAFromParts), and the vectors the engine's reduction needs
// are derived from the table on first use (core.DSFA). A capped attempt
// that overruns — a split or a failed merge — therefore costs cap ×
// (k + classes) words of tuples and transitions, independent of |D|, and
// so does a merged candidate the planner throws away.
//
// Tuple identity is vector identity, so the tuple automaton has exactly
// as many states as the vector-interned one. Two tuples that differ
// differ in some rule i's component: two states of rule i's D-SFA, which
// send some state q of rule i's DFA to two different states. That DFA is
// minimal, so those two states have different futures in rule i's
// language; q occurs in some reachable product state, and mask-aware
// minimization keeps product states with different rule-i futures apart.
// So the two tuples send that product state to two different states of
// D. TestDerivedVectorsMatchConstruction checks the equality (and |S_d|
// = |M(D)|, Sect. VII-A) on generated sets and the SNORT sample.
// Budgets are enforced on the tuple count, which is the state count.

// tupleDSFA builds the combined D-SFA for a shard directly over
// reachable tuples of component D-SFA states. comps[i] is rule i's own
// D-SFA (over the component's minimal DFA); d is the shard's mask-aware-
// minimized product DFA of those same component DFAs, whose byte classes
// are the components' common refinement. cap > 0 bounds the number of
// interned tuple states; overruns report core.ErrTooManyStates exactly
// like the vector-interning path, so the planner's split-and-retry loop
// is path-agnostic.
func tupleDSFA(comps []*core.DSFA, d *dfa.DFA, cap int) (*core.DSFA, error) {
	k := len(comps)
	nc := d.BC.Count

	// Per-component class translation: combined class c steps component i
	// by its own class of the combined representative byte (within a
	// combined class no component distinguishes bytes).
	classOf := make([]int, k*nc)
	for c := 0; c < nc; c++ {
		b := d.BC.Rep[c]
		for i, s := range comps {
			classOf[i*nc+c] = int(s.BC().Of[b])
		}
	}

	sizeHint := 512
	if cap > 0 && cap < sizeHint {
		sizeHint = cap
	}
	tuples := intern.New[int32](k, cap, sizeHint)
	nextC := make([]int32, 0, sizeHint*nc) // grown in lockstep with interning
	next := make([]int32, k)
	for i, s := range comps {
		next[i] = s.Start
	}
	tuples.Intern(next) // id 0: every component at its identity mapping
	nextC = append(nextC, make([]int32, nc)...)
	for id := int32(0); int(id) < tuples.Len(); id++ {
		for c := 0; c < nc; c++ {
			// O(k) transition: one component D-SFA table lookup each.
			src := tuples.Row(id)
			for i, s := range comps {
				next[i] = s.NextClass(src[i], classOf[i*nc+c])
			}
			to, fresh := tuples.Intern(next)
			if to < 0 {
				return nil, fmt.Errorf("%w (tuple cap %d)", core.ErrTooManyStates, cap)
			}
			nextC[int(id)*nc+c] = to
			if fresh {
				nextC = append(nextC, make([]int32, nc)...)
			}
		}
	}
	// The automaton keeps nextC for its lifetime: hand it over without
	// the append slack.
	return core.NewDSFAFromParts(d, 0, slices.Clone(nextC))
}

// shardDSFA dispatches a shard's combined D-SFA construction: tuple
// interning, or the vector-interning core.BuildDSFA for a single-rule
// shard (there is no product to exploit, and no component D-SFA needs
// building).
func shardDSFA(bin []planRule, d *dfa.DFA, cap int) (*core.DSFA, error) {
	if len(bin) == 1 {
		return core.BuildDSFA(d, cap)
	}
	comps := make([]*core.DSFA, len(bin))
	for i, r := range bin {
		s, err := r.s.get()
		if err != nil {
			if isBudgetErr(err) {
				return nil, fmt.Errorf("%w: component D-SFA of rule %d over budget", ErrBudget, r.idx)
			}
			return nil, fmt.Errorf("multi: rule %d: %w", r.idx, err)
		}
		comps[i] = s
	}
	return tupleDSFA(comps, d, cap)
}
