// Package engine implements the matching algorithms evaluated by the
// paper:
//
//   - Algorithm 2 — sequential DFA computation (the 1-thread baseline of
//     Figs. 6–10);
//   - Algorithm 3 — the prior-work parallel DFA computation by speculative
//     simulation, whose per-byte overhead is linear in |D|;
//   - Algorithm 5 — the paper's parallel SFA computation, one table
//     lookup per byte per thread, with both reduction strategies
//     (sequential O(p) and parallel tree with the associative ⊙);
//   - the on-the-fly variant of Algorithm 5 over a lazily constructed
//     SFA (Sect. V-A);
//   - the bitset NFA simulation used as the semantics oracle.
//
// There is no N-SFA engine: package core builds no N-SFA (its ⊙ is an
// O(|N|³) boolean matrix product, Table II, and no experiment here
// needs one), so every SFA engine walks a D-SFA.
//
// All engines implement whole-input acceptance over []byte, the semantics
// of the paper's experiments ("1GB string accepted by those automata, and
// every character was read exactly once").
package engine

import "fmt"

// Matcher is the common interface of every engine.
type Matcher interface {
	// Match reports whether the automaton accepts the whole input.
	Match(text []byte) bool
	// Name identifies the engine in benchmark output.
	Name() string
}

// Reduction selects how per-chunk results are combined (Algorithm 3
// line 8 / Algorithm 5 line 6).
type Reduction int

const (
	// ReduceSequential folds the p chunk results left to right by
	// applying each mapping to a single running state: O(p) work for the
	// SFA engine, O(p) for speculative DFA.
	ReduceSequential Reduction = iota
	// ReduceTree folds chunk results pairwise with the associative
	// composition operator ⊙, ⌈log p⌉ levels of ⌊p/2⌋ compositions.
	// Levels run iteratively on the calling goroutine over the match
	// context's reusable ping-pong arena, so the fold allocates nothing
	// in steady state; total work is O(|D|·p) for the SFA and speculative
	// DFA engines (the seed recursed in parallel goroutines, which does not
	// pay off for vector compositions this cheap).
	ReduceTree
)

func (r Reduction) String() string {
	switch r {
	case ReduceSequential:
		return "seq-reduce"
	case ReduceTree:
		return "tree-reduce"
	}
	return fmt.Sprintf("Reduction(%d)", int(r))
}

// span returns the half-open byte range [lo, hi) of chunk i when n bytes
// are split into p nearly equal contiguous spans (chunk i of chunks(n, p),
// computed directly so the hot path never allocates a span slice). Spans
// may be empty when n < p. The split points are arbitrary — Theorem 3
// guarantees any division yields the same result.
func span(n, p, i int) (lo, hi int) {
	base, rem := n/p, n%p
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// chunks materializes all p spans of span(n, p, ·).
func chunks(n, p int) [][2]int {
	if p < 1 {
		p = 1
	}
	out := make([][2]int, p)
	for i := 0; i < p; i++ {
		lo, hi := span(n, p, i)
		out[i] = [2]int{lo, hi}
	}
	return out
}
