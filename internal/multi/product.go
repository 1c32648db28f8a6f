package multi

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/intern"
	"repro/internal/nfa"
)

// maxProductStates caps any product DFA at the D-SFA construction's own
// limit: core.BuildDSFA stores mapping entries as int16.
const maxProductStates = core.MaxDFAStates

// maskWords returns the bitmask width for n rules.
func maskWords(n int) int { return (n + 63) / 64 }

// combinedClasses computes the common refinement of the component DFAs'
// byte classes: two bytes are combined-equivalent iff every component
// treats them alike, so the product automaton behaves identically on
// them.
func combinedClasses(ds []*dfa.DFA) *nfa.ByteClasses {
	bc := &nfa.ByteClasses{}
	seen := make(map[string]uint8)
	key := make([]byte, len(ds))
	for b := 0; b < 256; b++ {
		for i, d := range ds {
			key[i] = d.BC.Of[b]
		}
		id, ok := seen[string(key)]
		if !ok {
			id = uint8(len(seen)) // a partition of 256 bytes has ≤ 256 blocks
			seen[string(key)] = id
			bc.Rep = append(bc.Rep, byte(b))
		}
		bc.Of[b] = id
	}
	bc.Count = len(seen)
	return bc
}

// productDFA combines the component DFAs into one complete DFA over their
// common byte-class refinement. States are reachable tuples of component
// states; the returned mask table holds one bitmask row per product state
// with bit i set iff component i accepts (stride maskWords(len(ds))).
//
// The construction is the subset construction of Algorithm 1 restricted
// to the deterministic union: every reachable subset holds exactly one
// state per component, so exploring tuples directly avoids the bitset
// machinery. budget > 0 bounds the product's state count; blow-up —
// which can approach the product of the component sizes — is reported as
// an error wrapping ErrBudget so the planner can split the shard.
func productDFA(ds []*dfa.DFA, budget int) (*dfa.DFA, []uint64, error) {
	if budget <= 0 || budget > maxProductStates {
		budget = maxProductStates
	}
	bc := combinedClasses(ds)
	n := len(ds)
	nc := bc.Count
	words := maskWords(n)

	// Tuple interning: ids in discovery order, so the id range is the BFS
	// queue.
	tuples := intern.New[int32](n, budget, 64)
	var trans []int32 // id*nc + c → id, grown in lockstep
	next := make([]int32, n)
	for i, d := range ds {
		next[i] = d.Start
	}
	tuples.Intern(next) // id 0
	trans = append(trans, make([]int32, nc)...)
	for id := int32(0); int(id) < tuples.Len(); id++ {
		for c := 0; c < nc; c++ {
			// One representative byte per combined class steps every
			// component; within a class no component distinguishes bytes.
			b := bc.Rep[c]
			src := tuples.Row(id)
			for i, d := range ds {
				next[i] = d.NextByte(src[i], b)
			}
			to, fresh := tuples.Intern(next)
			if to < 0 {
				return nil, nil, fmt.Errorf("%w: product DFA over %d states", ErrBudget, budget)
			}
			trans[int(id)*nc+c] = to
			if fresh {
				trans = append(trans, make([]int32, nc)...)
			}
		}
	}

	states := tuples.Len()
	d := dfa.New(states, bc)
	d.Start = 0
	d.NextC = trans
	masks := make([]uint64, states*words)
	for id := 0; id < states; id++ {
		t := tuples.Row(int32(id))
		row := masks[id*words : (id+1)*words]
		any := false
		for i, q := range t {
			if ds[i].Accept[q] {
				row[i>>6] |= 1 << (i & 63)
				any = true
			}
		}
		// The bool accept bit is "any rule matches": it makes the product
		// a valid dfa.DFA (dead-sink detection, D-SFA accept vector)
		// while the mask table carries the per-rule verdicts.
		d.Accept[id] = any
	}
	d.DetectDead()
	return d, masks, nil
}
