package engine

import (
	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/nfa"
	"repro/internal/syntax"
)

// DFASequential is the paper's Algorithm 2: one state, one flat-table
// lookup per input byte. The table layout is 256 int32 entries per state
// (1 KB), as in the paper's implementation.
type DFASequential struct {
	d   *dfa.DFA
	tab []int32
}

// NewDFASequential compiles the matcher (materializing the 256-wide
// table; the class-indexed table stays available through d).
func NewDFASequential(d *dfa.DFA) *DFASequential {
	return &DFASequential{d: d, tab: core.DFATable256[int32](d)}
}

// Match implements Algorithm 2.
func (m *DFASequential) Match(text []byte) bool {
	q := m.d.Start
	tab := m.tab
	for _, b := range text {
		q = tab[int(q)<<8|int(b)]
	}
	return m.d.Accept[q]
}

// Final returns the destination state (used by tests).
func (m *DFASequential) Final(text []byte) int32 {
	q := m.d.Start
	for _, b := range text {
		q = m.tab[int(q)<<8|int(b)]
	}
	return q
}

// Name implements Matcher.
func (m *DFASequential) Name() string { return "dfa-seq" }

// NFASim wraps the bitset NFA simulation (Table II row "NFA") behind the
// Matcher interface; it is the oracle the property tests compare engines
// against.
type NFASim struct {
	sim *nfa.Simulator
}

// NewNFASim compiles an NFA simulator for the pattern tree.
func NewNFASim(root *syntax.Node) (*NFASim, error) {
	a, err := nfa.Glushkov(root)
	if err != nil {
		return nil, err
	}
	return NewNFASimFrom(a), nil
}

// NewNFASimFrom wraps a simulator over an already-built NFA.
func NewNFASimFrom(a *nfa.NFA) *NFASim { return &NFASim{sim: nfa.NewSimulator(a)} }

// Match implements Matcher.
func (m *NFASim) Match(text []byte) bool { return m.sim.Match(text) }

// Name implements Matcher.
func (m *NFASim) Name() string { return "nfa-sim" }
