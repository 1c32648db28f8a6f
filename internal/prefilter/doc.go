// Package prefilter extracts required-literal sets from rule syntax
// trees and matches them with one multi-literal filter, so a rule-set
// scan can run the combined D-SFA only near positions where some rule
// could possibly match.
//
// The contract throughout is *soundness*: a literal set for a rule is
// required — every input the rule matches contains at least one member
// — so skipping regions with no literal hit can never lose a verdict.
// Rules whose AST defeats extraction are flagged uncovered and scanned
// in full; the cascade is an optimization, never a semantics change.
//
// # Key types
//
// [Extract] walks one rule's syntax tree and returns a [Rule]: the
// required literal set, a classification (its Window and Prefix flags —
// window, prefix, gate, or uncovered), a shrink-aware match bound (an
// unbounded repetition at an unanchored pattern edge shrinks to its
// minimum count, because a contiguous slice of the repeated run is
// itself an occurrence), and per literal the candidate window a hit
// opens ([Rule.Extent]): that bound narrowed to where the literal sits
// in the rule, so nothing before a literal that heads its rule is
// walked. [NewMatcher] builds the multi-literal searcher
// for a set's census: a position-mask filter over the literals' first
// bytes (at most four), whose per-byte lookups are independent of each
// other, followed by a comparison of the few literals the masks leave.
// Hits map back to the witnessing rules so a candidate window only
// grows the shard that needs it.
//
// # Invariants
//
// Extraction is conservative in the safe direction: when in doubt
// (wide classes, nullable subtrees, literal sets past the caps) it
// degrades the rule's class, never narrows the literal set below
// "required". The matcher reports exactly the literal occurrences in
// the bytes it is given, ascending by position; callers treat hits as
// candidates to verify with the automaton, never as verdicts.
// internal/multi segregates the classes into separate shards and drives
// the cascade at scan and stream time.
package prefilter
