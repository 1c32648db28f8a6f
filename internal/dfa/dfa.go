// Package dfa implements deterministic finite automata over the byte
// alphabet: the subset construction of the paper's Algorithm 1, Hopcroft
// minimization (with a Brzozowski cross-check), language-equivalence
// testing, and the live-size accounting convention used throughout the
// paper's evaluation.
//
// Dead-state convention. A DFA over the full 256-byte alphabet is stored
// complete: every state has a successor for every byte. The everywhere-
// rejecting sink ("dead state") that completeness usually forces is,
// however, not part of the sizes the paper reports — the minimal DFA of
// ([0-4]{5}[5-9]{5})* is quoted as 10 states, which is its live-state
// count. LiveSize implements that convention; NumStates includes the sink.
package dfa

import (
	"errors"
	"fmt"

	"repro/internal/nfa"
	"repro/internal/syntax"
)

// ErrTooManyStates is returned by Determinize when the state cap set by
// the caller is exceeded (the paper skips SNORT rules whose DFA exceeds
// 1000 states, Sect. VI-A).
var ErrTooManyStates = errors.New("dfa: state cap exceeded")

// NoDead marks the absence of a dead state in DFA.Dead.
const NoDead int32 = -1

// DFA is a complete deterministic finite automaton. Transitions are
// stored class-indexed: NextC[q*len(classes)+c] with c the byte class of
// the input byte. core.DFATable256 expands it to the flat 256-wide
// layout the matching engines walk (1 KB per int32 state, as in the
// paper's Sect. VI-B).
type DFA struct {
	NumStates int
	Start     int32
	Accept    []bool
	BC        *nfa.ByteClasses
	NextC     []int32 // NumStates × BC.Count
	Dead      int32   // index of the sink state, or NoDead
}

// New returns a DFA shell with n states and the given classes.
// Transitions are initialized to 0 and must be filled by the caller,
// which should finish with DetectDead.
func New(n int, bc *nfa.ByteClasses) *DFA {
	return &DFA{
		NumStates: n,
		Accept:    make([]bool, n),
		BC:        bc,
		NextC:     make([]int32, n*bc.Count),
		Dead:      NoDead,
	}
}

// DetectDead locates the sink state (if any) and records it in d.Dead.
// Callers that fill a DFA by hand must invoke it once transitions are
// final so that LiveSize follows the paper's counting convention.
func (d *DFA) DetectDead() {
	d.Dead = d.findDead()
}

// NextClass returns the successor of q under byte class c.
func (d *DFA) NextClass(q int32, c int) int32 {
	return d.NextC[int(q)*d.BC.Count+c]
}

// NextByte returns the successor of q on input byte b.
func (d *DFA) NextByte(q int32, b byte) int32 {
	return d.NextC[int(q)*d.BC.Count+int(d.BC.Of[b])]
}

// setNext sets the successor of q under class c.
func (d *DFA) setNext(q int32, c int, to int32) {
	d.NextC[int(q)*d.BC.Count+c] = to
}

// LiveSize returns the number of states excluding the dead sink — the
// state count convention of the paper (|D| = 10 for r5 etc.).
func (d *DFA) LiveSize() int {
	if d.Dead != NoDead {
		return d.NumStates - 1
	}
	return d.NumStates
}

// Accepts runs the DFA over text and reports whole-input acceptance.
// This is the paper's Algorithm 2 in its simplest form; the tuned
// implementations live in package engine.
func (d *DFA) Accepts(text []byte) bool { return d.Accept[d.Run(d.Start, text)] }

// Run returns the destination state q0 --text--> q. The table, the class
// map and the row stride are read once, not per byte: for a small DFA —
// one rule's, a few KB, cache-resident — the loop is then the serial
// chain of lookups and nothing else.
//
//sfa:noalloc
func (d *DFA) Run(from int32, text []byte) int32 {
	next, of, nc, q := d.NextC, &d.BC.Of, d.BC.Count, int(from)
	for _, b := range text {
		q = int(next[q*nc+int(of[b])])
	}
	return int32(q)
}

// findDead locates the sink: the unique non-accepting state all of whose
// transitions self-loop. In a trim automaton there is at most one.
func (d *DFA) findDead() int32 {
	for q := 0; q < d.NumStates; q++ {
		if d.Accept[q] {
			continue
		}
		sink := true
		base := q * d.BC.Count
		for c := 0; c < d.BC.Count; c++ {
			if d.NextC[base+c] != int32(q) {
				sink = false
				break
			}
		}
		if sink {
			return int32(q)
		}
	}
	return NoDead
}

// String summarizes the automaton.
func (d *DFA) String() string {
	return fmt.Sprintf("DFA{states: %d (live %d), classes: %d, start: %d}",
		d.NumStates, d.LiveSize(), d.BC.Count, d.Start)
}

// Validate checks internal invariants; it is used by tests and fuzzing.
func (d *DFA) Validate() error {
	if d.NumStates <= 0 {
		return errors.New("dfa: no states")
	}
	if int(d.Start) >= d.NumStates || d.Start < 0 {
		return fmt.Errorf("dfa: start %d out of range", d.Start)
	}
	if len(d.Accept) != d.NumStates {
		return fmt.Errorf("dfa: accept len %d != states %d", len(d.Accept), d.NumStates)
	}
	if len(d.NextC) != d.NumStates*d.BC.Count {
		return fmt.Errorf("dfa: table len %d != %d×%d", len(d.NextC), d.NumStates, d.BC.Count)
	}
	for i, to := range d.NextC {
		if to < 0 || int(to) >= d.NumStates {
			return fmt.Errorf("dfa: transition %d → %d out of range", i, to)
		}
	}
	if d.Dead != NoDead {
		if int(d.Dead) >= d.NumStates {
			return fmt.Errorf("dfa: dead %d out of range", d.Dead)
		}
		if d.Accept[d.Dead] {
			return errors.New("dfa: dead state accepts")
		}
	}
	return nil
}

// ToNFA views the DFA as an NFA (used by Brzozowski minimization, which
// reverses and determinizes it).
func (d *DFA) ToNFA() *nfa.NFA {
	a := nfa.New(d.NumStates)
	a.Start = []int32{d.Start}
	copy(a.Accept, d.Accept)
	for q := 0; q < d.NumStates; q++ {
		// Group target states per class to emit one edge per class.
		for c := 0; c < d.BC.Count; c++ {
			to := d.NextClass(int32(q), c)
			set := classSet(d.BC, c)
			a.AddEdge(int32(q), to, set)
		}
	}
	return a
}

// classSet returns the CharSet of bytes belonging to class c.
func classSet(bc *nfa.ByteClasses, c int) (set syntax.CharSet) {
	for b := 0; b < 256; b++ {
		if int(bc.Of[b]) == c {
			set.AddByte(byte(b))
		}
	}
	return set
}
