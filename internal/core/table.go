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

import (
	"repro/internal/dfa"
	"repro/internal/nfa"
)

// FitsU8 reports whether every id of an automaton with n states fits in a
// uint8 table entry.
func FitsU8(n int) bool { return n <= 1<<8 }

// FitsU16 reports whether every id fits in a uint16 table entry.
func FitsU16(n int) bool { return n <= 1<<16 }

// Table256 expands a class-indexed successor table — numStates rows of
// bc.Count entries — into the flat 256-wide layout with entries of type
// T, which must hold every state id (FitsU8 / FitsU16 for the narrow
// widths). Each row is built by a typed loop: a state's successors are
// narrowed once into a 256-entry array indexed by class, then the row is
// filled through the class map. Every 256-wide table is built here: D's
// own (DFATable256) and the D-SFA's (DSFATable256).
func Table256[T uint8 | uint16 | int32](numStates int, bc *nfa.ByteClasses, nextC []int32) []T {
	t := make([]T, numStates*256)
	var succ [256]T
	for q := 0; q < numStates; q++ {
		for c, to := range nextC[q*bc.Count : (q+1)*bc.Count] {
			succ[uint8(c)] = T(to)
		}
		row := (*[256]T)(t[q*256:])
		for b, c := range &bc.Of {
			row[b] = succ[c]
		}
	}
	return t
}

// DFATable256 materializes DFA d's own 256-wide table: the sequential and
// speculative baselines and the known-start walk of the SFA engines.
func DFATable256[T uint8 | uint16 | int32](d *dfa.DFA) []T {
	return Table256[T](d.NumStates, d.BC, d.NextC)
}

// DSFATable256 materializes the D-SFA's 256-wide table: 256 B per state
// as uint8, 512 B as uint16, 1 KB as int32 (the layout whose cache
// behaviour Fig. 8 studies).
func DSFATable256[T uint8 | uint16 | int32](s *DSFA) []T {
	return Table256[T](s.NumStates, s.D.BC, s.NextC)
}
