package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dfa"
)

func buildDSFA(t *testing.T, pattern string) *DSFA {
	t.Helper()
	d := dfa.MustCompilePattern(pattern)
	s, err := BuildDSFA(d, 0)
	if err != nil {
		t.Fatalf("BuildDSFA(%q): %v", pattern, err)
	}
	return s
}

// TestExample1TableI pins the exact SFA of the paper's running example:
// Fig. 2 / Table I give the six state mappings f0…f5 of the SFA for
// (ab)*, over the DFA of Fig. 1 (states 0 = start/accept, 1 = after a,
// 2 = dead).
func TestExample1TableI(t *testing.T) {
	s := buildDSFA(t, "(ab)*")
	d := s.D
	if s.NumStates != 6 {
		t.Fatalf("|S1| = %d states, Fig. 2 shows 6", s.NumStates)
	}
	if s.LiveSize() != 5 {
		t.Fatalf("live size = %d, want 5 (f3 is the dead mapping)", s.LiveSize())
	}

	// Identify DFA states semantically.
	q0 := d.Start
	q1 := d.Run(q0, []byte("a"))
	qd := d.Dead
	if qd == dfa.NoDead || q1 == q0 || q1 == qd {
		t.Fatalf("unexpected DFA shape: q0=%d q1=%d dead=%d", q0, q1, qd)
	}
	// Build each fi's vector in terms of (q0, q1, qd), exactly Table I.
	want := map[string][]int16{}
	set := func(name string, m map[int32]int32) {
		v := make([]int16, d.NumStates)
		for q, to := range m {
			v[q] = int16(to)
		}
		want[name] = v
	}
	set("f0", map[int32]int32{q0: q0, q1: q1, qd: qd}) // identity
	set("f1", map[int32]int32{q0: q1, q1: qd, qd: qd}) // after a
	set("f2", map[int32]int32{q0: qd, q1: q0, qd: qd}) // after b
	set("f3", map[int32]int32{q0: qd, q1: qd, qd: qd}) // dead
	set("f4", map[int32]int32{q0: q0, q1: qd, qd: qd}) // after ab
	set("f5", map[int32]int32{q0: qd, q1: q1, qd: qd}) // after ba

	id := map[string]int32{}
	for name, v := range want {
		got, ok := s.StateOf(v)
		if !ok {
			t.Fatalf("Table I mapping %s not reachable", name)
		}
		id[name] = got
	}
	if id["f0"] != s.Start {
		t.Error("f0 must be the start state")
	}
	if id["f3"] != s.EmptyID {
		t.Error("f3 must be the dead mapping")
	}
	// Transition structure of Fig. 2 (spot checks along abab):
	// f0 -a-> f1 -b-> f4 -a-> f1 -b-> f4.
	if got := s.Run(s.Start, []byte("a")); got != id["f1"] {
		t.Errorf("f0 --a--> %d, want f1=%d", got, id["f1"])
	}
	if got := s.Run(s.Start, []byte("ab")); got != id["f4"] {
		t.Errorf("f0 --ab--> %d, want f4=%d", got, id["f4"])
	}
	if got := s.Run(s.Start, []byte("abab")); got != id["f4"] {
		t.Errorf("f0 --abab--> %d, want f4=%d", got, id["f4"])
	}
	if got := s.Run(s.Start, []byte("ba")); got != id["f5"] {
		t.Errorf("f0 --ba--> %d, want f5=%d", got, id["f5"])
	}
	// Acceptance: f ∈ Fs iff f(0) ∩ F ≠ ∅ and I = {0}, so only f0 and f4
	// (which map 0 back to the accepting state 0) are final — Example 1
	// notes "f4(0) = {0} implies … f4 is also an accepted state".
	for _, name := range []string{"f0", "f4"} {
		if !s.Accept[id[name]] {
			t.Errorf("%s should accept", name)
		}
	}
	for _, name := range []string{"f1", "f2", "f3", "f5"} {
		if s.Accept[id[name]] {
			t.Errorf("%s should reject", name)
		}
	}
}

// TestExample2Reduction replays the paper's Example 2: w = (ab)⁷ split as
// aba | baba | bab | abab; local runs give f1, f5, f2, f4 and the ⊙-fold
// gives f4, whose application to the DFA start state yields {0}.
func TestExample2Reduction(t *testing.T) {
	s := buildDSFA(t, "(ab)*")
	chunks := []string{"aba", "baba", "bab", "abab"}
	local := make([]int32, len(chunks))
	for i, w := range chunks {
		local[i] = s.Run(s.Start, []byte(w))
	}
	// (f1 ⊙ f5) ⊙ (f2 ⊙ f4) per the example's parallel reduction order.
	n := s.D.NumStates
	comp := func(f, g int32) []int16 {
		h := make([]int16, n)
		ComposeVec(h, s.Map(f), s.Map(g))
		return h
	}
	left, ok := s.StateOf(comp(local[0], local[1]))
	if !ok {
		t.Fatal("f1 ⊙ f5 not a reachable mapping")
	}
	right, ok := s.StateOf(comp(local[2], local[3]))
	if !ok {
		t.Fatal("f2 ⊙ f4 not a reachable mapping")
	}
	final := make([]int16, n)
	ComposeVec(final, s.Map(left), s.Map(right))
	fid, ok := s.StateOf(final)
	if !ok {
		t.Fatal("final composition not reachable")
	}
	want := s.Run(s.Start, []byte("ababababababab"))
	if fid != want {
		t.Errorf("reduced state %d != sequential state %d", fid, want)
	}
	if !s.Accept[fid] {
		t.Error("(ab)⁷ must be accepted")
	}
	// Example 2 also notes f1 ⊙ f5 = f1: verify idempotent-ish identity.
	if left != local[0] {
		t.Errorf("f1 ⊙ f5 = %d, example says it equals f1 = %d", left, local[0])
	}
	// Sequential reduction: start from D's initial state and apply each map.
	q := s.D.Start
	for _, f := range local {
		q = int32(s.Map(f)[q])
	}
	if !s.D.Accept[q] {
		t.Error("sequential reduction must accept")
	}
}

// TestRnSizeLaw pins the |Sd| = |D|² + |D| − 1 law that the paper's
// r_n = ([0-4]{n}[5-9]{n})* family exhibits (|Sd| = 109, 10 099, 1 000 999
// for n = 5, 50, 500 — Figs. 6–8).
func TestRnSizeLaw(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 10, 15} {
		pattern := fmt.Sprintf("([0-4]{%d}[5-9]{%d})*", n, n)
		s := buildDSFA(t, pattern)
		dLive := s.D.LiveSize()
		if dLive != 2*n {
			t.Errorf("r%d: |D| = %d, want %d", n, dLive, 2*n)
		}
		want := dLive*dLive + dLive - 1
		if got := s.LiveSize(); got != want {
			t.Errorf("r%d: |Sd| = %d, want %d", n, got, want)
		}
	}
}

// TestPaperSFASizes pins every SFA size the paper quotes that is small
// enough to build in a unit test.
func TestPaperSFASizes(t *testing.T) {
	cases := []struct {
		pattern string
		dLive   int
		sLive   int
	}{
		{"([0-4]{5}[5-9]{5})*", 10, 109},      // Fig. 6
		{"([0-4]{50}[5-9]{50})*", 100, 10099}, // Fig. 7
		{"(([02468][13579]){5})*", 10, 21},    // Fig. 10
		// Fig. 9's ([0-4]{500}[5-9]{500})*|a* is quoted as |D| = 1002,
		// |Sd| = 1001000 = |Sd(r500)| + 1; the n=5 analogue obeys the same
		// +2/+1 arithmetic: |D| = 12, |Sd| = 110.
		{"([0-4]{5}[5-9]{5})*|a*", 12, 110},
	}
	for _, c := range cases {
		s := buildDSFA(t, c.pattern)
		if s.D.LiveSize() != c.dLive {
			t.Errorf("%q: |D| = %d, want %d", c.pattern, s.D.LiveSize(), c.dLive)
		}
		if s.LiveSize() != c.sLive {
			t.Errorf("%q: |Sd| = %d, want %d", c.pattern, s.LiveSize(), c.sLive)
		}
	}
}

// TestDotStarChainCubicBlowup reproduces the Sect. VI-A anecdote: rules
// with several .* in sequence are the only SNORT family whose D-SFA
// exceeds |D|³ (the paper's 10-state example reaches 3739 states).
// Our PROMPT-like chain reaches 4556 > 10³ with |D| = 10, and stays under
// |D|⁴ — "no regular expressions in the rulesets lead to a D-SFA of
// over-quadruplicate size".
func TestDotStarChainCubicBlowup(t *testing.T) {
	s := buildDSFA(t, "(?s).*(T.*Y.*P.*P.*R.*O.*M.*P.*T)")
	dLive := s.D.LiveSize()
	if dLive != 10 {
		t.Fatalf("|D| = %d, want 10", dLive)
	}
	if got := s.LiveSize(); got != 4556 {
		t.Errorf("|Sd| = %d, want 4556", got)
	}
	if s.LiveSize() <= dLive*dLive*dLive {
		t.Error("expected over-cube growth")
	}
	if s.LiveSize() > dLive*dLive*dLive*dLive {
		t.Error("growth exceeded the quartic bound the paper reports for SNORT")
	}
}

// TestTheorem2Equivalence: L(SFA) = L(DFA) on random patterns and words.
func TestTheorem2Equivalence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 80; trial++ {
		pat := randPattern(r, 3)
		d := dfa.MustCompilePattern(pat)
		s, err := BuildDSFA(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			w := randWord(r, 12)
			if d.Accepts(w) != s.Accepts(w) {
				t.Fatalf("pattern %q: SFA disagrees with DFA on %q", pat, w)
			}
		}
	}
}

// TestLemma1 checks f_{w1·w2} = f_{w1} ⊙ f_{w2} on random words: the
// mapping reached on a concatenation equals the composition of the
// mappings reached on the halves.
func TestLemma1(t *testing.T) {
	s := buildDSFA(t, "([0-4]{3}[5-9]{3})*")
	r := rand.New(rand.NewSource(21))
	digits := []byte("0123456789ab")
	for trial := 0; trial < 300; trial++ {
		w := make([]byte, r.Intn(20))
		for i := range w {
			w[i] = digits[r.Intn(len(digits))]
		}
		cut := 0
		if len(w) > 0 {
			cut = r.Intn(len(w) + 1)
		}
		f1 := s.Run(s.Start, w[:cut])
		f2 := s.Run(s.Start, w[cut:])
		h := make([]int16, s.D.NumStates)
		ComposeVec(h, s.Map(f1), s.Map(f2))
		hid, ok := s.StateOf(h)
		if !ok {
			t.Fatalf("composition of reachable mappings not reachable (monoid closure violated)")
		}
		if whole := s.Run(s.Start, w); whole != hid {
			t.Fatalf("Lemma 1 violated on %q cut at %d", w, cut)
		}
	}
}

// TestTheorem3AnySplit splits random accepted and rejected inputs at many
// random points into k chunks; the ⊙-fold of per-chunk runs must always
// equal the unsplit run.
func TestTheorem3AnySplit(t *testing.T) {
	s := buildDSFA(t, "(([02468][13579]){5})*")
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		w := make([]byte, r.Intn(64))
		for i := range w {
			w[i] = byte('0' + r.Intn(10))
		}
		want := s.Run(s.Start, w)
		k := 1 + r.Intn(6)
		cuts := make([]int, 0, k+1)
		cuts = append(cuts, 0)
		for i := 0; i < k-1; i++ {
			if len(w) > 0 {
				cuts = append(cuts, r.Intn(len(w)+1))
			} else {
				cuts = append(cuts, 0)
			}
		}
		cuts = append(cuts, len(w))
		sortInts(cuts)
		// Fold mappings left to right.
		acc := append([]int16(nil), s.Map(s.Start)...)
		tmp := make([]int16, s.D.NumStates)
		for i := 0; i+1 < len(cuts); i++ {
			f := s.Run(s.Start, w[cuts[i]:cuts[i+1]])
			ComposeVec(tmp, acc, s.Map(f))
			acc, tmp = tmp, acc
		}
		got, ok := s.StateOf(acc)
		if !ok || got != want {
			t.Fatalf("Theorem 3 violated: %q cuts %v", w, cuts)
		}
	}
}

// TestComposeVecAssociative: ⊙ is associative (the property parallel
// reduction depends on), checked with testing/quick over random
// transformations.
func TestComposeVecAssociative(t *testing.T) {
	const n = 9
	gen := func(r *rand.Rand) []int16 {
		v := make([]int16, n)
		for i := range v {
			v[i] = int16(r.Intn(n))
		}
		return v
	}
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		f, g, h := gen(r), gen(r), gen(r)
		fg, gh, l, rr := make([]int16, n), make([]int16, n), make([]int16, n), make([]int16, n)
		ComposeVec(fg, f, g)
		ComposeVec(l, fg, h) // (f⊙g)⊙h
		ComposeVec(gh, g, h)
		ComposeVec(rr, f, gh) // f⊙(g⊙h)
		return eqVec16(l, rr)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestIdentityIsUnit: f_I ⊙ f = f ⊙ f_I = f for every reachable f.
func TestIdentityIsUnit(t *testing.T) {
	s := buildDSFA(t, "([0-4]{2}[5-9]{2})*")
	idVec := s.Map(s.Start)
	h := make([]int16, s.D.NumStates)
	for f := int32(0); f < int32(s.NumStates); f++ {
		ComposeVec(h, idVec, s.Map(f))
		if !eqVec16(h, s.Map(f)) {
			t.Fatalf("f_I ⊙ f%d ≠ f%d", f, f)
		}
		ComposeVec(h, s.Map(f), idVec)
		if !eqVec16(h, s.Map(f)) {
			t.Fatalf("f%d ⊙ f_I ≠ f%d", f, f)
		}
	}
}

// TestMonoidClosure: the reachable mappings are closed under ⊙ — they form
// the transition monoid of D (Sect. VII-A).
func TestMonoidClosure(t *testing.T) {
	s := buildDSFA(t, "([0-4]{2}[5-9]{2})*")
	h := make([]int16, s.D.NumStates)
	for f := int32(0); f < int32(s.NumStates); f++ {
		for g := int32(0); g < int32(s.NumStates); g++ {
			ComposeVec(h, s.Map(f), s.Map(g))
			if _, ok := s.StateOf(h); !ok {
				t.Fatalf("f%d ⊙ f%d escapes the reachable set", f, g)
			}
		}
	}
}

func TestBuildDSFACap(t *testing.T) {
	d := dfa.MustCompilePattern("([0-4]{10}[5-9]{10})*") // |Sd| = 419
	_, err := BuildDSFA(d, 100)
	if !errors.Is(err, ErrTooManyStates) {
		t.Fatalf("got %v, want ErrTooManyStates", err)
	}
	if _, err := BuildDSFA(d, 1000); err != nil {
		t.Fatalf("cap 1000 should fit 420 states: %v", err)
	}
}

func TestTable256MatchesClassTable(t *testing.T) {
	s := buildDSFA(t, "(ab|cd)*x?")
	tab := DSFATable256[int32](s)
	q1, q2 := s.Start, s.Start
	for _, b := range []byte("abcdxq") {
		q1 = s.NextByte(q1, b)
		q2 = tab[int(q2)*256+int(b)]
		if q1 != q2 {
			t.Fatalf("flat table diverges on %q", b)
		}
	}
}

func TestApplyVec(t *testing.T) {
	s := buildDSFA(t, "(ab)*")
	f := s.Run(s.Start, []byte("ab"))
	if got := ApplyVec(s.Map(f), s.D.Start); got != s.D.Start {
		t.Errorf("f_ab(q0) = %d, want q0 = %d", got, s.D.Start)
	}
}

func TestMemoryBytesPositive(t *testing.T) {
	s := buildDSFA(t, "([0-4]{5}[5-9]{5})*")
	if s.MemoryBytes() <= 0 {
		t.Error("MemoryBytes must be positive")
	}
}

func TestDSFARejectsHugeDFA(t *testing.T) {
	// Fabricate a DFA that exceeds MaxDFAStates without building it fully:
	// use a real small DFA and lie about nothing — instead check the
	// guard via the exported constant.
	if MaxDFAStates != 1<<15 {
		t.Skip("constant changed; update test")
	}
	// Construction guard is exercised indirectly: a DFA cannot be built
	// that large in-test cheaply, so only verify the API contract exists.
	d := dfa.MustCompilePattern("(ab)*")
	if _, err := BuildDSFA(d, 0); err != nil {
		t.Fatal(err)
	}
}

func randPattern(r *rand.Rand, depth int) string {
	if depth <= 0 {
		return string(byte('a' + r.Intn(3)))
	}
	switch r.Intn(6) {
	case 0:
		return randPattern(r, depth-1) + randPattern(r, depth-1)
	case 1:
		return "(?:" + randPattern(r, depth-1) + "|" + randPattern(r, depth-1) + ")"
	case 2:
		return "(?:" + randPattern(r, depth-1) + ")*"
	case 3:
		return "(?:" + randPattern(r, depth-1) + ")?"
	case 4:
		return "(?:" + randPattern(r, depth-1) + ")+"
	default:
		return randPattern(r, depth-1)
	}
}

func randWord(r *rand.Rand, maxLen int) []byte {
	n := r.Intn(maxLen + 1)
	w := make([]byte, n)
	for i := range w {
		w[i] = byte('a' + r.Intn(3))
	}
	return w
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// TestVectorsReleasedAndDerived: BuildDSFA and NewDSFAFromParts leave no
// vectors resident; the vectors the first reader derives are the ones
// construction interned (StateOf finds each under its own id), and
// NewDSFAFromParts over BuildDSFA's table gives the same Accept and
// EmptyID with D's dead state (whole input) and without (search).
func TestVectorsReleasedAndDerived(t *testing.T) {
	for _, pat := range []string{"(ab)*", "([0-4]{2}[5-9]{2})*", ".*(a|bc)*d.*", ".*a[ab]{3}.*"} {
		s := buildDSFA(t, pat)
		p, err := NewDSFAFromParts(s.D, s.Start, append([]int32(nil), s.NextC...))
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []*DSFA{s, p} {
			if a.vecs.Load() != nil || a.MemoryBytes() != int64(len(a.NextC))*4 {
				t.Fatalf("%q: %d bytes resident after construction, want the table's %d", pat, a.MemoryBytes(), len(a.NextC)*4)
			}
		}
		if p.EmptyID != s.EmptyID || fmt.Sprint(p.Accept) != fmt.Sprint(s.Accept) {
			t.Fatalf("%q: assembled Accept/EmptyID %v/%d, built %v/%d", pat, p.Accept, p.EmptyID, s.Accept, s.EmptyID)
		}
		if (s.D.Dead == dfa.NoDead) != (s.EmptyID < 0) {
			t.Fatalf("%q: dead DFA state %d, EmptyID %d", pat, s.D.Dead, s.EmptyID)
		}
		for id := int32(0); id < int32(s.NumStates); id++ {
			if got, ok := s.StateOf(s.Map(id)); !ok || got != id {
				t.Fatalf("%q: StateOf(Map(%d)) = %d, %v", pat, id, got, ok)
			}
			if !eqVec16(p.Map(id), s.Map(id)) {
				t.Fatalf("%q: state %d derives different vectors from the same table", pat, id)
			}
		}
		if want := int64(len(s.NextC))*4 + int64(s.NumStates*s.n)*2; s.MemoryBytes() != want {
			t.Fatalf("%q: MemoryBytes %d after derivation, want %d", pat, s.MemoryBytes(), want)
		}
	}
	// A state the start cannot reach has no vector to derive.
	s := buildDSFA(t, "(ab)*")
	nc := s.D.BC.Count
	next := append([]int32(nil), s.NextC...)
	for c := 0; c < nc; c++ {
		next = append(next, int32(s.NumStates))
	}
	if _, err := NewDSFAFromParts(s.D, s.Start, next); err == nil {
		t.Fatal("a table with an unreachable state was accepted")
	}
}

// TestEmptyIDAmongSeveralDeadStates: a tuple automaton can hold several
// everywhere-dead states, not all of them self-loops. NewDSFAFromParts
// reports the last one, as a finalize over every vector does; a
// shortcut through sink states would report the other.
func TestEmptyIDAmongSeveralDeadStates(t *testing.T) {
	s := buildDSFA(t, "(ab)*")
	nc := s.D.BC.Count
	e := s.EmptyID
	if e < 0 {
		t.Fatal("fixture has no dead mapping")
	}
	// Copy the dead state's row into a new state N and send one
	// transition of a live state into N instead: N is everywhere-dead and
	// steps to e, not to itself.
	next := append(append([]int32(nil), s.NextC...), s.NextC[int(e)*nc:(int(e)+1)*nc]...)
	n := int32(s.NumStates)
	redirected := false
	for x := int32(0); x < n && !redirected; x++ {
		for c := 0; c < nc && x != e; c++ {
			if next[int(x)*nc+c] == e {
				next[int(x)*nc+c] = n
				redirected = true
				break
			}
		}
	}
	if !redirected {
		t.Fatal("no live state steps to the dead mapping")
	}
	p, err := NewDSFAFromParts(s.D, s.Start, next)
	if err != nil {
		t.Fatal(err)
	}
	if p.EmptyID != max(e, n) {
		t.Fatalf("EmptyID %d, want the last of the dead states %d and %d", p.EmptyID, e, n)
	}
	for _, id := range []int32{e, n} {
		if !allEqual(p.Map(id), int16(s.D.Dead)) || p.Accept[id] {
			t.Fatalf("state %d: vector %v, accept %v; want everywhere dead", id, p.Map(id), p.Accept[id])
		}
	}
}
