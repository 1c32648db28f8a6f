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
// The |D|-long mapping vectors the engine's reduction needs come only
// after the walk has closed under its cap: one per interned state, at
// the table's exact size, each from its BFS parent's vector by one class
// step per entry (plain array indexing, never hashed). A capped attempt
// that overruns — a split or a failed merge — therefore costs cap ×
// (k + classes) words of tuples and transitions, independent of |D|,
// instead of cap × |D| vector entries it would throw away.
//
// Tuple identity is an over-approximation of vector identity: two
// distinct tuples can induce the same transformation on every
// *reachable* product state (the unreachable disagreements were cut by
// reachability and mask-aware minimization). The tuple automaton
// therefore has at least as many states as the vector-interned one and
// accepts byte-identical verdicts — the oracle tests gate on MatchMask
// equality, never on state counts, and the sfabench ruleset table
// reports the Σ|Sd| delta. Budgets are enforced on the tuple count,
// which makes them conservative in exactly the safe direction.

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
	n := d.NumStates
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
	// The walk interns tuples only; each fresh state records the state and
	// class it was first reached by, for the vectors after the walk.
	tuples := intern.New[int32](k, cap, sizeHint)
	nextC := make([]int32, 0, sizeHint*nc) // grown in lockstep with interning
	parent := make([]int32, 1, sizeHint)   // parent[0] is unused: id 0 is the identity
	class := make([]uint8, 1, sizeHint)
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
				parent = append(parent, id)
				class = append(class, uint8(c))
			}
		}
	}

	// Materialize the product-DFA mapping vectors at their exact size, in
	// id order: f_{wσ}(q) = δ(f_w(q), σ), and a state's parent was
	// discovered before it, so its vector is already filled.
	states := tuples.Len()
	maps := make([]int16, states*n)
	for q := 0; q < n; q++ {
		maps[q] = int16(q)
	}
	for id := 1; id < states; id++ {
		src := maps[int(parent[id])*n : int(parent[id]+1)*n]
		dst := maps[id*n : (id+1)*n]
		c := int(class[id])
		for q, f := range src {
			dst[q] = int16(d.NextClass(int32(f), c))
		}
	}
	// The automaton keeps nextC for its lifetime: hand it over without
	// the append slack.
	return core.NewDSFAFromParts(d, 0, slices.Clone(nextC), maps)
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
