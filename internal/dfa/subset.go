package dfa

import (
	"fmt"

	"repro/internal/intern"
	"repro/internal/nfa"
	"repro/internal/syntax"
)

// Determinize applies the subset construction (the paper's Algorithm 1) to
// an NFA, producing a complete DFA over the NFA's byte classes. Starting
// from the ε-closed initial set it explores only accessible subsets,
// "considering only those states obtained by applying the transition
// function to the states already calculated".
//
// cap > 0 bounds the number of DFA states; ErrTooManyStates is returned
// when exceeded (the paper's SNORT study skips DFAs above 1000 states).
func Determinize(a *nfa.NFA, cap int) (*DFA, error) {
	t := nfa.Compile(a)
	return determinize(t, cap)
}

// DeterminizeTable is Determinize for an already-compiled NFA table.
func DeterminizeTable(t *nfa.Table, cap int) (*DFA, error) {
	return determinize(t, cap)
}

func determinize(t *nfa.Table, cap int) (*DFA, error) {
	nc := t.BC.Count

	// Subset interning: bitset → state id, ids in discovery order. A state
	// is explored once, in id order, so the id range is the BFS queue.
	subsets := intern.New[uint64](t.Words, cap, 64)
	var trans []int32 // id*nc + c → id, grown in lockstep

	subsets.Intern(t.A.StartSet()) // id 0; a cap admits at least one state
	trans = append(trans, make([]int32, nc)...)
	scratch := make([]uint64, t.Words)
	for id := int32(0); int(id) < subsets.Len(); id++ {
		for c := 0; c < nc; c++ {
			clear(scratch)
			t.Step(scratch, subsets.Row(id), c)
			to, fresh := subsets.Intern(scratch)
			if to < 0 {
				return nil, fmt.Errorf("%w (cap %d)", ErrTooManyStates, cap)
			}
			trans[int(id)*nc+c] = to
			if fresh {
				trans = append(trans, make([]int32, nc)...)
			}
		}
	}

	d := New(subsets.Len(), t.BC)
	d.Start = 0
	d.NextC = trans
	for id := range d.Accept {
		d.Accept[id] = t.A.AcceptsSet(subsets.Row(int32(id)))
	}
	d.Dead = d.findDead()
	return d, nil
}

// Compile runs the paper's full front-end pipeline on a parsed pattern:
// Glushkov NFA (McNaughton–Yamada), subset construction, Hopcroft
// minimization. cap bounds the un-minimized DFA size (0 = unbounded).
func Compile(root *syntax.Node, cap int) (*DFA, error) {
	a, err := nfa.Glushkov(root)
	if err != nil {
		return nil, err
	}
	d, err := Determinize(a, cap)
	if err != nil {
		return nil, err
	}
	return Minimize(d), nil
}

// CompilePattern parses and compiles in one step.
func CompilePattern(pattern string, flags syntax.Flags, cap int) (*DFA, error) {
	root, err := syntax.Parse(pattern, flags)
	if err != nil {
		return nil, err
	}
	return Compile(root, cap)
}

// MustCompilePattern is CompilePattern for tests and known-good tables.
func MustCompilePattern(pattern string) *DFA {
	d, err := CompilePattern(pattern, 0, 0)
	if err != nil {
		panic(err)
	}
	return d
}
