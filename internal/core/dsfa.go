package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dfa"
	"repro/internal/nfa"
)

// ErrTooManyStates is returned when a state cap is exceeded during SFA
// construction.
var ErrTooManyStates = errors.New("core: SFA state cap exceeded")

// MaxDFAStates bounds the size of DFAs accepted by BuildDSFA: mapping
// vector entries are stored as int16, so DFA state ids must fit in 15
// bits. The largest DFA in the paper (r500, 1001 states) is far below.
const MaxDFAStates = 1 << 15

// DSFA is a simultaneous finite automaton constructed from a DFA
// (the paper's D-SFA). Each state f is a total transformation of the
// DFA's state set: Map(f)[q] is the DFA state reached from q by the words
// that lead the SFA from the identity to f.
//
// The DSFA itself is an ordinary complete DFA over the same byte classes
// as D, so matching uses exactly one table lookup per input byte — "each
// thread only deals with a single state in SFA and just looks up the
// transition table once for each character" (Sect. V-B).
//
// The transformation vectors are a derived cache. Matching reads only
// NextC and Accept; a vector is read where Algorithm 5 applies or
// composes a chunk's mapping (the p > 1 reduction, a carried-mapping
// fold), by StateOf, and by Encode. Construction releases the vectors it
// interned with once Accept and EmptyID are known, and the first reader
// derives all of them at once from (D, NextC, Start). A decoded
// automaton keeps the vectors it decoded.
type DSFA struct {
	D         *dfa.DFA
	NumStates int
	Start     int32  // id of the identity mapping
	Accept    []bool // Fs: f accepts iff D.Accept[f(D.Start)]
	NextC     []int32
	EmptyID   int32 // id of the everywhere-dead mapping, or -1

	n int // vector length == D.NumStates

	// vecs is published once: by the decoder, or by the first reader
	// (vectors) under vecOnce.
	vecs    atomic.Pointer[vectors]
	vecOnce sync.Once
}

// vectors are a D-SFA's resident transformation vectors and the StateOf
// index over them, built on the first StateOf call — matching never
// consults it, so a warm snapshot load skips the full-table hashing scan.
type vectors struct {
	maps    []int16 // flat NumStates × n
	n       int
	ids     map[uint64][]int32
	idsOnce sync.Once
}

// of is state id's vector.
func (v *vectors) of(id int32) []int16 { return v.maps[int(id)*v.n : (int(id)+1)*v.n] }

// vectors returns the resident transformation vectors, deriving them on
// the first call. Safe for concurrent first use: one derivation is
// published and every caller sees it.
func (s *DSFA) vectors() *vectors {
	if v := s.vecs.Load(); v != nil {
		return v
	}
	s.vecOnce.Do(func() {
		maps, _ := s.deriveMaps()
		s.vecs.Store(&vectors{maps: maps, n: s.n})
	})
	return s.vecs.Load()
}

// stateIDs returns the vectors with their StateOf index, building the
// index on first use.
func (s *DSFA) stateIDs() *vectors {
	v := s.vectors()
	v.idsOnce.Do(func() {
		ids := make(map[uint64][]int32, s.NumStates)
		for id := int32(0); id < int32(s.NumStates); id++ {
			h := hashVec16(v.of(id))
			ids[h] = append(ids[h], id)
		}
		v.ids = ids
	})
	return v
}

// deriveMaps computes every state's transformation vector from the
// transition table, walking the automaton breadth-first from Start: the
// identity at Start, and f_{wσ}(q) = δ(f_w(q), σ) for each state first
// reached from state w by class σ. A state's vector does not depend on
// the word that reaches it, so any parent gives the vector construction
// computed. Each step is the composition f_w ⊙ δ_σ with D's class-σ
// column as a vector. It also returns the number of states reached;
// the vectors of the others are left zero.
func (s *DSFA) deriveMaps() (maps []int16, reached int) {
	n, d := s.n, s.D
	nc := d.BC.Count
	cols := make([]int16, nc*n) // cols[σ·n+q] = δ(q, σ)
	for q := range n {
		for c, to := range d.NextC[q*nc : (q+1)*nc] {
			cols[c*n+q] = int16(to)
		}
	}
	maps = make([]int16, s.NumStates*n)
	vec := func(id int32) []int16 { return maps[int(id)*n : (int(id)+1)*n] }
	for q := range n {
		maps[int(s.Start)*n+q] = int16(q)
	}
	seen := make([]bool, s.NumStates)
	queue := make([]int32, 1, s.NumStates)
	queue[0] = s.Start
	seen[s.Start] = true
	for head := 0; head < len(queue); head++ {
		from := queue[head]
		for c, to := range s.NextC[int(from)*nc : (int(from)+1)*nc] {
			if !seen[to] {
				seen[to] = true
				ComposeVec(vec(to), vec(from), cols[c*n:(c+1)*n])
				queue = append(queue, to)
			}
		}
	}
	return maps, len(queue)
}

// BuildDSFA runs the correspondence construction (Algorithm 4) on a
// complete DFA. cap > 0 bounds the number of SFA states (live or not);
// ErrTooManyStates is returned when exceeded. The vectors it interns are
// released on return (see DSFA).
func BuildDSFA(d *dfa.DFA, cap int) (*DSFA, error) {
	if d.NumStates > MaxDFAStates {
		return nil, fmt.Errorf("core: DFA has %d states, D-SFA construction limit is %d",
			d.NumStates, MaxDFAStates)
	}
	n := d.NumStates
	nc := d.BC.Count

	s := &DSFA{D: d, n: n, EmptyID: -1}

	// Pre-size the flat storage: reachable SFA state counts are unknown
	// until closure completes, but starting from a few hundred states'
	// worth of capacity removes the early append-doubling churn that
	// dominated construction allocations for small automata.
	sizeHint := 512
	if cap > 0 && cap < sizeHint {
		sizeHint = cap
	}
	maps := make([]int16, 0, sizeHint*n)
	s.NextC = make([]int32, 0, sizeHint*nc)
	mapOf := func(id int32) []int16 { return maps[int(id)*n : (int(id)+1)*n] }

	// Intern table: hash → candidate ids, vectors live in maps.
	ids := make(map[uint64][]int32, sizeHint)
	intern := func(vec []int16) (int32, bool, error) {
		h := hashVec16(vec)
		for _, id := range ids[h] {
			if eqVec16(mapOf(id), vec) {
				return id, false, nil
			}
		}
		if cap > 0 && s.NumStates >= cap {
			return 0, false, fmt.Errorf("%w (cap %d)", ErrTooManyStates, cap)
		}
		id := int32(s.NumStates)
		s.NumStates++
		maps = append(maps, vec...)
		ids[h] = append(ids[h], id)
		s.NextC = append(s.NextC, make([]int32, nc)...)
		return id, true, nil
	}

	// Identity mapping f_I (line 1 of Algorithm 4).
	identity := make([]int16, n)
	for q := range identity {
		identity[q] = int16(q)
	}
	start, _, err := intern(identity)
	if err != nil {
		return nil, err
	}
	s.Start = start

	queue := []int32{start}
	next := make([]int16, n)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		// Hoisted out of the per-class loop: intern's appends may move
		// maps to a new backing array, leaving f viewing the old one —
		// that stale view stays correct because interned vectors are
		// write-once (do not add in-place mutation of maps without
		// revisiting this).
		f := mapOf(id)
		for c := 0; c < nc; c++ {
			// Line 6 (deterministic case): fnext(q) = δ(f(q), σ).
			for q := 0; q < n; q++ {
				next[q] = int16(d.NextClass(int32(f[q]), c))
			}
			to, fresh, err := intern(next)
			if err != nil {
				return nil, err
			}
			s.NextC[int(id)*nc+c] = to
			if fresh {
				queue = append(queue, to)
			}
		}
	}

	// Final states Fs (line 12) and the dead mapping, if reachable.
	s.finalize(maps)
	return s, nil
}

// finalize derives the accept vector and the dead-mapping id from the
// flat transformation vectors maps.
func (s *DSFA) finalize(maps []int16) {
	d := s.D
	s.Accept = make([]bool, s.NumStates)
	s.EmptyID = -1
	for id := 0; id < s.NumStates; id++ {
		f := maps[id*s.n : (id+1)*s.n]
		s.Accept[id] = d.Accept[f[d.Start]]
		if d.Dead != dfa.NoDead && allEqual(f, int16(d.Dead)) {
			s.EmptyID = int32(id)
		}
	}
}

// NewDSFAFromParts assembles a D-SFA from an externally constructed
// transition table: nextC is class-indexed (stride d.BC.Count), state
// ids dense from 0 and every state reachable from start. The
// tuple-interned product construction in internal/multi builds it
// directly from component D-SFAs instead of running the vector-interning
// Algorithm 4; the assembled automaton is indistinguishable to the
// engines and the codec. Unlike BuildDSFA's states, two states may hold
// the same vector (distinct tuples can agree on every reachable product
// state) — matching and serialization are unaffected, and StateOf
// resolves to the first id holding the vector.
//
// The accept vector and dead-mapping id are read off the transformation
// vectors, which are derived here and released on return (see DSFA).
//
//sfa:borrowed nextC
//sfa:adopts
func NewDSFAFromParts(d *dfa.DFA, start int32, nextC []int32) (*DSFA, error) {
	if d.NumStates > MaxDFAStates {
		return nil, fmt.Errorf("core: DFA has %d states, D-SFA construction limit is %d",
			d.NumStates, MaxDFAStates)
	}
	n := d.NumStates
	nc := d.BC.Count
	if n == 0 || nc == 0 || len(nextC)%nc != 0 {
		return nil, fmt.Errorf("core: transition table %d entries not a multiple of %d classes", len(nextC), nc)
	}
	states := len(nextC) / nc
	if states == 0 {
		return nil, errors.New("core: no SFA states")
	}
	if start < 0 || int(start) >= states {
		return nil, fmt.Errorf("core: start %d out of range", start)
	}
	s := &DSFA{
		D:         d,
		NumStates: states,
		Start:     start,
		NextC:     nextC,
		n:         n,
	}
	maps, reached := s.deriveMaps()
	if reached != states {
		return nil, fmt.Errorf("core: %d of %d states unreachable from start", states-reached, states)
	}
	s.finalize(maps)
	return s, nil
}

func allEqual(v []int16, x int16) bool {
	for _, e := range v {
		if e != x {
			return false
		}
	}
	return true
}

// Map returns the transformation vector of SFA state id, deriving every
// vector on the first call (see DSFA). The slice aliases internal storage
// and must not be modified.
func (s *DSFA) Map(id int32) []int16 { return s.vectors().of(id) }

// StateOf returns the id of the SFA state holding exactly the given
// transformation vector, if one was reached during construction. The
// reachable vectors form the transition monoid of D (Sect. VII-A), so
// StateOf(ComposeVec(f, g)) always succeeds for reachable f, g — a closure
// property the tests and package monoid rely on.
func (s *DSFA) StateOf(vec []int16) (int32, bool) {
	v := s.stateIDs()
	for _, id := range v.ids[hashVec16(vec)] {
		if eqVec16(v.of(id), vec) {
			return id, true
		}
	}
	return 0, false
}

// BC returns the byte classes shared with the underlying DFA.
func (s *DSFA) BC() *nfa.ByteClasses { return s.D.BC }

// LiveSize returns the state count excluding the everywhere-dead mapping —
// the |Sd| convention of the paper's tables.
func (s *DSFA) LiveSize() int {
	if s.EmptyID >= 0 {
		return s.NumStates - 1
	}
	return s.NumStates
}

// NextClass returns the successor of SFA state id under byte class c.
func (s *DSFA) NextClass(id int32, c int) int32 {
	return s.NextC[int(id)*s.D.BC.Count+c]
}

// NextByte returns the successor of SFA state id on input byte b.
func (s *DSFA) NextByte(id int32, b byte) int32 {
	return s.NextC[int(id)*s.D.BC.Count+int(s.D.BC.Of[b])]
}

// Run returns the SFA state reached from `from` after reading text.
func (s *DSFA) Run(from int32, text []byte) int32 {
	q := from
	for _, b := range text {
		q = s.NextByte(q, b)
	}
	return q
}

// Accepts reports whole-input acceptance by the SFA itself (Theorem 2:
// L(SFA) = L(DFA)).
func (s *DSFA) Accepts(text []byte) bool {
	return s.Accept[s.Run(s.Start, text)]
}

// ComposeVec writes into h the composition "f then g" of two
// transformation vectors: h[q] = g[f[q]]. This is the paper's ⊙ operator
// (reverse composition f ⊙ g = g ∘ f) restricted to D-SFA mappings; the
// parallel reduction of Algorithm 5 folds chunk results with it.
// h must not alias f or g.
//
//sfa:borrowed f g
func ComposeVec(h, f, g []int16) {
	// Four independent lookups per iteration, with f's bounds checked once:
	// a carried-mapping fold per stream write runs this over all of |D|.
	f = f[:len(h)]
	q := 0
	for ; q+4 <= len(h); q += 4 {
		h[q], h[q+1], h[q+2], h[q+3] = g[f[q]], g[f[q+1]], g[f[q+2]], g[f[q+3]]
	}
	for ; q < len(h); q++ {
		h[q] = g[f[q]]
	}
}

// ApplyVec returns f(q): the single-state application used by the O(p)
// sequential reduction of Algorithm 5.
//
//sfa:borrowed f
func ApplyVec(f []int16, q int32) int32 { return int32(f[q]) }

// MemoryBytes estimates the resident size of the SFA's tables: the
// class-indexed transition table plus the mapping vectors if they are
// resident (decoded, or derived by a reader since construction). The
// 256-wide table adds NumStates KiB on top when expanded.
func (s *DSFA) MemoryBytes() int64 {
	n := int64(len(s.NextC)) * 4
	if v := s.vecs.Load(); v != nil {
		n += int64(len(v.maps)) * 2
	}
	return n
}

// String summarizes the automaton.
func (s *DSFA) String() string {
	return fmt.Sprintf("DSFA{states: %d (live %d), over DFA %d (live %d), classes: %d}",
		s.NumStates, s.LiveSize(), s.D.NumStates, s.D.LiveSize(), s.D.BC.Count)
}
