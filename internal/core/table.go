// Width-specialized 256-wide transition tables.
//
// The matching cost of Algorithm 5 is one table lookup per byte per
// thread, so the physical size of a table entry decides how many automaton
// states fit in each cache level — the effect Fig. 8 isolates (the r500
// D-SFA's 1 GB of int32 tables against a 12 MB LLC). Narrowing the entry
// to the smallest integer that can hold every state id shrinks the
// resident table 2–4×: an automaton with ≤ 256 states walks a []uint8
// table (256 B per state), one with ≤ 65 536 states a []uint16 table
// (512 B per state), and only larger automata pay the 1 KB-per-state
// int32 layout the paper used.
package core

import "repro/internal/dfa"

// FitsU8 reports whether every id of an automaton with n states fits in a
// uint8 table entry.
func FitsU8(n int) bool { return n <= 1<<8 }

// FitsU16 reports whether every id fits in a uint16 table entry.
func FitsU16(n int) bool { return n <= 1<<16 }

// table256 expands a class-indexed successor table into the flat
// 256-wide layout with entries of type T. Each row is built by a typed
// loop: a state's successors are narrowed once into a 256-entry array
// indexed by class, then the row is filled through the class map.
func table256[T uint8 | uint16 | int32](numStates, classes int, classOf *[256]uint8, nextC []int32) []T {
	t := make([]T, numStates*256)
	var succ [256]T
	for q := 0; q < numStates; q++ {
		for c, to := range nextC[q*classes : (q+1)*classes] {
			succ[uint8(c)] = T(to)
		}
		row := (*[256]T)(t[q*256:])
		for b, c := range classOf {
			row[b] = succ[c]
		}
	}
	return t
}

// DFATable256 materializes DFA d's own flat 256-wide table with entries
// of type T, which must hold every state id (FitsU8 / FitsU16 for the
// narrow widths). It is the one builder of DFA tables: the sequential
// and speculative baselines and the known-start walk of the SFA engines
// all expand d.NextC through it.
func DFATable256[T uint8 | uint16 | int32](d *dfa.DFA) []T {
	return table256[T](d.NumStates, d.BC.Count, &d.BC.Of, d.NextC)
}

// Table256U8 materializes the flat 256-wide table with uint8 entries
// (256 B per SFA state). It panics unless FitsU8(s.NumStates).
func (s *DSFA) Table256U8() []uint8 {
	if !FitsU8(s.NumStates) {
		panic("core: Table256U8 needs ≤ 256 states")
	}
	return table256[uint8](s.NumStates, s.D.BC.Count, &s.D.BC.Of, s.NextC)
}

// Table256U16 materializes the flat 256-wide table with uint16 entries
// (512 B per SFA state). It panics unless FitsU16(s.NumStates).
func (s *DSFA) Table256U16() []uint16 {
	if !FitsU16(s.NumStates) {
		panic("core: Table256U16 needs ≤ 65536 states")
	}
	return table256[uint16](s.NumStates, s.D.BC.Count, &s.D.BC.Of, s.NextC)
}

// Table256 materializes the flat 256-wide int32 table (1 KB per SFA
// state, the layout whose cache behaviour Fig. 8 studies).
func (s *DSFA) Table256() []int32 {
	return table256[int32](s.NumStates, s.D.BC.Count, &s.D.BC.Of, s.NextC)
}
