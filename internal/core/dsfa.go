package core

import (
	"errors"
	"fmt"
	"sync"

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
type DSFA struct {
	D         *dfa.DFA
	NumStates int
	Start     int32  // id of the identity mapping
	Accept    []bool // Fs: f accepts iff D.Accept[f(D.Start)]
	NextC     []int32
	EmptyID   int32 // id of the everywhere-dead mapping, or -1

	n    int     // vector length == D.NumStates
	maps []int16 // flat NumStates × n transformation vectors

	// ids is the vector-lookup index behind StateOf. BuildDSFA fills it
	// as a side effect of interning; automata assembled from already-
	// final tables (ReadDSFA, NewDSFAFromParts) leave it nil and build
	// it on first StateOf call — matching never consults it, so warm
	// snapshot loads skip the full-table hashing scan entirely.
	ids     map[uint64][]int32
	idsOnce sync.Once
}

// ensureIDs builds the StateOf intern index on demand. Safe for
// concurrent first use; a no-op when construction already filled it.
func (s *DSFA) ensureIDs() {
	s.idsOnce.Do(func() {
		if s.ids != nil {
			return
		}
		ids := make(map[uint64][]int32, s.NumStates)
		for id := int32(0); id < int32(s.NumStates); id++ {
			h := hashVec16(s.mapOf(id))
			ids[h] = append(ids[h], id)
		}
		s.ids = ids
	})
}

// BuildDSFA runs the correspondence construction (Algorithm 4) on a
// complete DFA. cap > 0 bounds the number of SFA states (live or not);
// ErrTooManyStates is returned when exceeded.
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
	s.maps = make([]int16, 0, sizeHint*n)
	s.NextC = make([]int32, 0, sizeHint*nc)

	// Intern table: hash → candidate ids, vectors live in s.maps.
	ids := make(map[uint64][]int32, sizeHint)
	s.ids = ids
	intern := func(vec []int16) (int32, bool, error) {
		h := hashVec16(vec)
		for _, id := range ids[h] {
			if eqVec16(s.mapOf(id), vec) {
				return id, false, nil
			}
		}
		if cap > 0 && s.NumStates >= cap {
			return 0, false, fmt.Errorf("%w (cap %d)", ErrTooManyStates, cap)
		}
		id := int32(s.NumStates)
		s.NumStates++
		s.maps = append(s.maps, vec...)
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
		// s.maps to a new backing array, leaving f viewing the old one —
		// that stale view stays correct because interned vectors are
		// write-once (do not add in-place mutation of s.maps without
		// revisiting this).
		f := s.mapOf(id)
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
	s.finalize()
	return s, nil
}

// finalize derives the accept vector and the dead-mapping id from the
// interned vectors — the last step both construction paths share.
func (s *DSFA) finalize() {
	d := s.D
	s.Accept = make([]bool, s.NumStates)
	s.EmptyID = -1
	for id := int32(0); id < int32(s.NumStates); id++ {
		f := s.mapOf(id)
		s.Accept[id] = d.Accept[f[d.Start]]
		if d.Dead != dfa.NoDead && allEqual(f, int16(d.Dead)) {
			s.EmptyID = id
		}
	}
}

// NewDSFAFromParts assembles a D-SFA from externally constructed tables:
// nextC is the class-indexed transition table (stride d.BC.Count) and
// maps the flat transformation vectors (stride d.NumStates), state ids
// dense from 0. The tuple-interned product construction in
// internal/multi builds these directly from component D-SFAs instead of
// running the vector-interning Algorithm 4; the assembled automaton is
// indistinguishable to the engines and the codec. Unlike BuildDSFA's
// intern table, maps may contain duplicate vectors (distinct tuples can
// agree on every reachable product state) — matching and serialization
// are unaffected, and StateOf resolves to the first id holding the
// vector. The accept vector and dead-mapping id are derived here; the
// StateOf index is built lazily on first use.
//
//sfa:borrowed nextC maps
//sfa:adopts
func NewDSFAFromParts(d *dfa.DFA, start int32, nextC []int32, maps []int16) (*DSFA, error) {
	if d.NumStates > MaxDFAStates {
		return nil, fmt.Errorf("core: DFA has %d states, D-SFA construction limit is %d",
			d.NumStates, MaxDFAStates)
	}
	n := d.NumStates
	nc := d.BC.Count
	if n == 0 || len(maps)%n != 0 {
		return nil, fmt.Errorf("core: mapping table %d entries not a multiple of %d DFA states", len(maps), n)
	}
	states := len(maps) / n
	if states == 0 {
		return nil, errors.New("core: no SFA states")
	}
	if len(nextC) != states*nc {
		return nil, fmt.Errorf("core: transition table %d entries, want %d states × %d classes",
			len(nextC), states, nc)
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
		maps:      maps,
	}
	s.finalize()
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

func (s *DSFA) mapOf(id int32) []int16 {
	return s.maps[int(id)*s.n : (int(id)+1)*s.n]
}

// Map returns the transformation vector of SFA state id. The slice aliases
// internal storage and must not be modified.
func (s *DSFA) Map(id int32) []int16 { return s.mapOf(id) }

// StateOf returns the id of the SFA state holding exactly the given
// transformation vector, if one was reached during construction. The
// reachable vectors form the transition monoid of D (Sect. VII-A), so
// StateOf(ComposeVec(f, g)) always succeeds for reachable f, g — a closure
// property the tests and package monoid rely on.
func (s *DSFA) StateOf(vec []int16) (int32, bool) {
	s.ensureIDs()
	for _, id := range s.ids[hashVec16(vec)] {
		if eqVec16(s.mapOf(id), vec) {
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

// Table256 materializes the flat 256-wide transition table (1 KB per SFA
// state, the layout whose cache behaviour Fig. 8 studies).
func (s *DSFA) Table256() []int32 {
	nc := s.D.BC.Count
	t := make([]int32, s.NumStates*256)
	for q := 0; q < s.NumStates; q++ {
		row := t[q*256 : (q+1)*256]
		base := q * nc
		for b := 0; b < 256; b++ {
			row[b] = s.NextC[base+int(s.D.BC.Of[b])]
		}
	}
	return t
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

// MemoryBytes estimates the resident size of the SFA's match-time tables:
// the class-indexed transition table plus the mapping vectors needed for
// reduction. The 256-wide table adds NumStates KiB on top when expanded.
func (s *DSFA) MemoryBytes() int64 {
	return int64(len(s.NextC))*4 + int64(len(s.maps))*2
}

// String summarizes the automaton.
func (s *DSFA) String() string {
	return fmt.Sprintf("DSFA{states: %d (live %d), over DFA %d (live %d), classes: %d}",
		s.NumStates, s.LiveSize(), s.D.NumStates, s.D.LiveSize(), s.D.BC.Count)
}
