// Package multi compiles a set of patterns into combined simultaneous
// automata for multi-pattern matching — the deep-packet-inspection
// workload of the paper's introduction (one SNORT ruleset, heavy packet
// traffic), where scanning each input once per rule multiplies table
// walks and cache pressure by the rule count.
//
// The pipeline generalizes the paper's single-pattern one:
//
//  1. each rule is compiled to its minimal DFA as usual;
//  2. the rules of a shard are combined by the product construction into
//     one DFA whose states carry a per-rule accept bitmask (bit r set
//     when rule r accepts), then minimized mask-aware;
//  3. the combined DFA feeds the unchanged D-SFA correspondence
//     construction (core.BuildDSFA — the SFA states are transformations
//     of the combined DFA's state set), and matching is a pooled
//     parallel pass through engine.MultiSFA, which reports the full
//     bitmask of matching rules — one pass for all of a set's shards
//     where they can walk lock-step (engine.Lockstep).
//
// Construction cost is the known pain point of combined automata: the
// product DFA can approach the product of the component sizes, and its
// transformation monoid can grow further still. A state-count budget
// detects the blow-up during both constructions, and the planner falls
// back to K combined shards, with rules assigned greedily by estimated
// automaton size. K = rule count degenerates to
// the isolated per-rule engines, so the fallback is total.
//
// # Key types
//
// [Set] is the compiled artifact: an immutable list of shards, each
// holding a shardEngine (the common surface of eager [engine.MultiSFA]
// and lazy [engine.LazyMultiSFA]), the shard's rule indices, and its
// optional prefilter. [Options] carries every build knob; [Compile]
// plans and builds, [Recompile] rebuilds incrementally, reusing (by
// pointer) every shard whose rule membership and budgets are unchanged
// — the hot-reload primitive internal/serve leans on.
//
// # Scanning
//
// Shards exist because construction is budgeted, not because scanning
// wants them, so the scan paths undo the cost where they can. Shards
// that see every byte — all of them without a prefilter, the full and
// gate shards with one — are walked over the input together in one
// lock-step pass ([Set.Scan]) or one pass per Write followed by one
// ⊙-fold per shard ([SetStream.Write]). Window shards of a prefiltered
// set take the input block by block through the driver in prefilter.go,
// which per block either runs the literal cascade and walks candidate
// windows, or — when that has measured dearer on the set's recent
// traffic — skips the matcher and walks every window shard over the
// whole block in one lock-step pass. The "whole" window is a superset
// of every window the cascade would have opened, and window shards only
// ever rely on each occurrence lying inside *some* walked window, so
// the choice cannot change a verdict; it only decides whether the
// matcher is worth its own cost on this input. The choice is visible in
// [PrefilterStats] and never configurable.
//
// A window shard whose engine is lazy is verified per rule instead: its
// literals are recorded against (shard, rule) with the rule's own
// extents, the cascade keeps one open window per rule, and each window is
// one walk of that rule's own DFA from its start state
// ([engine.LazyMultiSFA.OrRule]). That is the window contract at k = 1 —
// an occurrence of rule r contains one of r's literals and lies inside
// that literal's window, and r's search-bracketed DFA accepts exactly the
// windows that contain an occurrence — so verdicts are unchanged, and
// such a shard never builds a combined automaton. Sets with one stay on
// the cascade arm. Once rule r has matched in a scan or stream, its bit
// cannot change until Reset, so r takes no more windows there: its hits
// are dropped, its open window is discarded, and Compose skips its
// junction.
//
// A window is as narrow as the literal's place in its rule allows:
// [p−back, p+fwd) for a hit at p, with the rule's extents for that
// literal (prefilter.Rule.Extent) — back = 0 for a literal that heads its
// rule — never wider than the MaxLen bound [p+l−MaxLen, p+MaxLen].
//
// # Lazy shards
//
// With Options.Lazy, rules whose dry-run construction exceeds the eager
// state budget are not refused: they are binned into lazy shards whose
// product states materialize on demand during scanning
// (core.LazyTuple interns k-tuples of component D-SFA states), bounded
// by a process-wide byte budget (Options.Budget, default the global
// budget) with LRU eviction of cold automata. The tuple tables are made
// by the first walk that needs every rule at once (a whole-input scan, a
// carried mapping); a lazy shard in window mode, verified per rule,
// never makes them and charges the budget nothing. Rules that fit keep the
// eager plan — the sticky fallback — so lazy mode never slows a set the
// eager builder could compile. Lazy shards are not serializable
// ([ErrNotSerializable]); Set.Encode fails on them and callers persist
// rule text instead. See docs/memory-model.md for the budget hierarchy
// and eviction invariants.
//
// # Invariants
//
// Verdicts are byte-identical across every plan the package can choose
// — combined, sharded, lazy, prefiltered, isolated — which is what the
// oracle tests in this package and in sfa/ gate on. Prefilter classes
// (window/prefix/gate/uncovered) are segregated into separate shards so
// one pathological rule cannot demote its neighbours, for eager and
// lazy bins alike. Construction never mutates a live Set: reloads build
// a fresh Set and swap it in whole.
package multi
