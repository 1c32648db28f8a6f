package dfa

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/nfa"
	"repro/internal/syntax"
)

func TestDeterminizeBasics(t *testing.T) {
	cases := []struct {
		pattern string
		yes     []string
		no      []string
	}{
		{"(ab)*", []string{"", "ab", "abab"}, []string{"a", "b", "ba", "abb"}},
		{"a|b", []string{"a", "b"}, []string{"", "ab"}},
		{"(a|bc)*", []string{"", "a", "bc", "abc", "bca"}, []string{"b", "c", "cb"}},
		{"[0-4]{2}[5-9]{2}", []string{"0055", "1256"}, []string{"", "0505"}},
	}
	for _, c := range cases {
		a, err := nfa.Glushkov(syntax.MustParse(c.pattern, 0))
		if err != nil {
			t.Fatal(err)
		}
		d, err := Determinize(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%q: %v", c.pattern, err)
		}
		for _, w := range c.yes {
			if !d.Accepts([]byte(w)) {
				t.Errorf("DFA(%q) should accept %q", c.pattern, w)
			}
		}
		for _, w := range c.no {
			if d.Accepts([]byte(w)) {
				t.Errorf("DFA(%q) should reject %q", c.pattern, w)
			}
		}
	}
}

func TestDeterminizeCap(t *testing.T) {
	// [ap]*[al][alp]{n-2} has a 2^n minimal DFA (paper Example 3); a low
	// cap must trip ErrTooManyStates.
	a, err := nfa.Glushkov(syntax.MustParse("[ap]*[al][alp]{10}", 0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Determinize(a, 100)
	if !errors.Is(err, ErrTooManyStates) {
		t.Fatalf("got %v, want ErrTooManyStates", err)
	}
}

// paperMinSizes pins the live minimal-DFA sizes quoted in the paper.
func TestPaperMinimalDFASizes(t *testing.T) {
	cases := []struct {
		pattern string
		live    int
	}{
		{"(ab)*", 2},                         // Fig. 1: states 0,1 (+ dead 2)
		{"([0-4]{2}[5-9]{2})*", 4},           // Fig. 4: 2n = 4
		{"([0-4]{5}[5-9]{5})*", 10},          // Fig. 6: |D| = 10
		{"([0-4]{50}[5-9]{50})*", 100},       // Fig. 7: |D| = 100
		{"(([02468][13579]){5})*", 10},       // Fig. 10: |D| = 10
		{"([0-4]{500}[5-9]{500})*|a*", 1002}, // Fig. 9: |D| = 1002
	}
	for _, c := range cases {
		d := MustCompilePattern(c.pattern)
		if got := d.LiveSize(); got != c.live {
			t.Errorf("live |D| of %q = %d, want %d", c.pattern, got, c.live)
		}
		if d.Dead == NoDead {
			t.Errorf("%q: expected a dead state over the byte alphabet", c.pattern)
		}
	}
}

func TestMinimizeReducesAndPreserves(t *testing.T) {
	// (a|b)*abb-style pattern whose Glushkov determinization is not minimal.
	pattern := "(a|b)*abb"
	a, err := nfa.Glushkov(syntax.MustParse(pattern, 0))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Determinize(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := Minimize(d)
	if m.NumStates > d.NumStates {
		t.Errorf("minimize grew the DFA: %d → %d", d.NumStates, m.NumStates)
	}
	if !Equivalent(d, m) {
		t.Error("minimized DFA not equivalent")
	}
	// (a|b)*abb has the classic 4-state minimal DFA (+1 dead).
	if m.LiveSize() != 4 {
		t.Errorf("live size = %d, want 4", m.LiveSize())
	}
}

func TestMinimizeIdempotent(t *testing.T) {
	d := MustCompilePattern("(a|bc)*d?")
	m := Minimize(d)
	if m.NumStates != d.NumStates {
		t.Errorf("re-minimization changed size %d → %d", d.NumStates, m.NumStates)
	}
	if !Isomorphic(d, m) {
		t.Error("re-minimization changed structure")
	}
}

func TestHopcroftAgreesWithBrzozowski(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		pat := randPattern(r, 3)
		node, err := syntax.Parse(pat, 0)
		if err != nil {
			t.Fatal(err)
		}
		a, err := nfa.Glushkov(node)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Determinize(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		h := Minimize(d)
		b, err := BrzozowskiMinimize(d)
		if err != nil {
			t.Fatal(err)
		}
		if h.NumStates != b.NumStates {
			t.Fatalf("pattern %q: hopcroft %d states, brzozowski %d",
				pat, h.NumStates, b.NumStates)
		}
		if !Isomorphic(h, b) {
			t.Fatalf("pattern %q: minimal DFAs not isomorphic", pat)
		}
		if !Equivalent(h, d) {
			t.Fatalf("pattern %q: hopcroft changed the language", pat)
		}
	}
}

func TestMinimalityNoEquivalentPair(t *testing.T) {
	// Moore-style check: in a minimal DFA no two distinct states are
	// language-equivalent. Verify by pairwise product walk.
	d := Minimize(MustCompilePattern("(a|b)*abb(a|b)?"))
	for p := int32(0); p < int32(d.NumStates); p++ {
		for q := p + 1; q < int32(d.NumStates); q++ {
			if statesEquivalent(d, p, q) {
				t.Fatalf("states %d and %d are equivalent in a minimal DFA", p, q)
			}
		}
	}
}

func statesEquivalent(d *DFA, p, q int32) bool {
	type pair struct{ a, b int32 }
	seen := map[pair]bool{{p, q}: true}
	queue := []pair{{p, q}}
	for len(queue) > 0 {
		pr := queue[0]
		queue = queue[1:]
		if d.Accept[pr.a] != d.Accept[pr.b] {
			return false
		}
		for c := 0; c < d.BC.Count; c++ {
			np := pair{d.NextClass(pr.a, c), d.NextClass(pr.b, c)}
			if np.a == np.b {
				continue
			}
			if !seen[np] {
				seen[np] = true
				queue = append(queue, np)
			}
		}
	}
	return true
}

func TestDFAMatchesNFARandom(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		pat := randPattern(r, 3)
		node := syntax.MustParse(pat, 0)
		a, err := nfa.Glushkov(node)
		if err != nil {
			t.Fatal(err)
		}
		sim := nfa.NewSimulator(a)
		d, err := Determinize(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		m := Minimize(d)
		for i := 0; i < 40; i++ {
			w := randWord(r, 12)
			want := sim.Match(w)
			if got := d.Accepts(w); got != want {
				t.Fatalf("DFA disagrees with NFA on %q for %q", w, pat)
			}
			if got := m.Accepts(w); got != want {
				t.Fatalf("minimal DFA disagrees with NFA on %q for %q", w, pat)
			}
		}
	}
}

func TestDeadStateConvention(t *testing.T) {
	d := MustCompilePattern("(ab)*")
	if d.Dead == NoDead {
		t.Fatal("expected dead state")
	}
	if d.LiveSize() != d.NumStates-1 {
		t.Error("LiveSize should exclude exactly the dead state")
	}
	// Σ* has no dead state.
	all := MustCompilePattern("(?s).*")
	if all.Dead != NoDead {
		t.Error("(?s).* should have no dead state")
	}
	if all.LiveSize() != 1 {
		t.Errorf("(?s).* live size = %d, want 1", all.LiveSize())
	}
}

func TestEquivalentNegative(t *testing.T) {
	a := MustCompilePattern("(ab)*")
	b := MustCompilePattern("(ab)+")
	if Equivalent(a, b) {
		t.Error("(ab)* and (ab)+ reported equivalent")
	}
	c := MustCompilePattern("(ab)*(ab)?")
	if !Equivalent(a, c) {
		t.Error("(ab)* and (ab)*(ab)? reported different")
	}
}

func TestIsomorphicNegative(t *testing.T) {
	a := MustCompilePattern("(ab)*")
	b := MustCompilePattern("(ba)*")
	if Isomorphic(a, b) {
		t.Error("different languages reported isomorphic")
	}
}

func TestTrimHandMadeDFA(t *testing.T) {
	// Hand-built DFA with an unreachable state.
	bc := classesOf("ab")
	d := New(3, bc)
	d.Start = 0
	d.Accept[0] = true
	for c := 0; c < bc.Count; c++ {
		d.setNext(0, c, 0)
		d.setNext(1, c, 1) // unreachable
		d.setNext(2, c, 2) // unreachable
	}
	m := Minimize(d)
	if m.NumStates != 1 {
		t.Errorf("got %d states, want 1", m.NumStates)
	}
}

// classesOf builds ByteClasses distinguishing the given bytes from each
// other and from the rest of the alphabet.
func classesOf(distinct string) *nfa.ByteClasses {
	a := nfa.New(len(distinct) + 1)
	for i := 0; i < len(distinct); i++ {
		var s syntax.CharSet
		s.AddByte(distinct[i])
		a.AddEdge(0, int32(i+1), s)
	}
	return nfa.Classes(a)
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := MustCompilePattern("(ab)*")
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	d.NextC[0] = int32(d.NumStates + 5)
	if err := d.Validate(); err == nil {
		t.Error("expected validation error")
	}
}

// randPattern and randWord mirror the generators in package nfa's tests.
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

func ExampleDFA_Accepts() {
	d := MustCompilePattern("(ab)*")
	fmt.Println(d.Accepts([]byte("abab")), d.Accepts([]byte("aba")))
	// Output: true false
}
