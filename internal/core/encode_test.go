package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dfa"
)

func TestDSFARoundTrip(t *testing.T) {
	for _, pat := range []string{"(ab)*", "([0-4]{5}[5-9]{5})*", "(a|bc)*d?"} {
		d := dfa.MustCompilePattern(pat)
		s, err := BuildDSFA(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadDSFA(&buf)
		if err != nil {
			t.Fatalf("%q: %v", pat, err)
		}
		if got.NumStates != s.NumStates || got.Start != s.Start || got.EmptyID != s.EmptyID {
			t.Fatalf("%q: header mismatch", pat)
		}
		// Mapping vectors identical.
		for id := int32(0); id < int32(s.NumStates); id++ {
			if !eqVec16(s.Map(id), got.Map(id)) {
				t.Fatalf("%q: mapping %d differs", pat, id)
			}
		}
		// StateOf works after reload.
		if _, ok := got.StateOf(s.Map(s.Start)); !ok {
			t.Fatalf("%q: intern index not rebuilt", pat)
		}
		// Behaviour identical.
		r := rand.New(rand.NewSource(11))
		for i := 0; i < 60; i++ {
			w := make([]byte, r.Intn(24))
			for j := range w {
				w[j] = "ab0123456789cd"[r.Intn(14)]
			}
			if s.Accepts(w) != got.Accepts(w) {
				t.Fatalf("%q: verdict mismatch on %q", pat, w)
			}
		}
	}
}

// TestStateOfLazyIndexConcurrent: the first StateOf after a load builds
// the intern index on demand; concurrent first calls must all observe a
// consistent index (sync.Once), and every interned vector must resolve.
func TestStateOfLazyIndexConcurrent(t *testing.T) {
	d := dfa.MustCompilePattern("([0-4]{5}[5-9]{5})*")
	s, err := BuildDSFA(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDSFA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for id := int32(g); id < int32(got.NumStates); id += 8 {
				if r, ok := got.StateOf(got.Map(id)); !ok || !eqVec16(got.Map(r), got.Map(id)) {
					done <- bytesErr(id)
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type bytesErr int32

func (e bytesErr) Error() string { return "StateOf failed for interned state" }

// BenchmarkReadDSFA measures warm snapshot decode. The StateOf intern
// index used to be rebuilt here by hashing every mapping vector; it is
// now lazy, so this is pure read+validate. BenchmarkReadDSFA_EagerIndex
// adds the index build back (what every load used to pay) for the
// before/after comparison.
func benchReadDSFA(b *testing.B, eager bool) {
	d := dfa.MustCompilePattern("([0-4]{5}[5-9]{5})*([ab]{3}[cd]{3})*")
	s, err := BuildDSFA(d, 0)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	blob := buf.Bytes()
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := ReadDSFA(bytes.NewReader(blob))
		if err != nil {
			b.Fatal(err)
		}
		if eager {
			got.stateIDs()
		}
	}
}

func BenchmarkReadDSFA(b *testing.B)            { benchReadDSFA(b, false) }
func BenchmarkReadDSFA_EagerIndex(b *testing.B) { benchReadDSFA(b, true) }

func TestReadDSFARejectsGarbage(t *testing.T) {
	if _, err := ReadDSFA(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
	// A valid DFA followed by garbage must fail at the SFA layer.
	d := dfa.MustCompilePattern("(ab)*")
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("not an sfa")
	if _, err := ReadDSFA(&buf); err == nil {
		t.Error("garbage SFA section accepted")
	}
}

func TestDSFARoundTripTruncated(t *testing.T) {
	d := dfa.MustCompilePattern("(ab)*")
	s, err := BuildDSFA(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, buf.Len() / 2, buf.Len() - 3} {
		if _, err := ReadDSFA(bytes.NewReader(buf.Bytes()[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// TestDecodeRejectsNonIdentityStart: the start state's vector must be the
// identity — derivation starts from it, and the engines write it rather
// than read it.
func TestDecodeRejectsNonIdentityStart(t *testing.T) {
	s, err := BuildDSFA(dfa.MustCompilePattern("(ab)*"), 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := DecodeDSFA(b); err != nil {
		t.Fatal(err)
	}
	// The vectors end the encoding; set the start vector's entry 0 to 1,
	// a DFA state in range.
	at := len(b) - 2*s.NumStates*s.n + 2*int(s.Start)*s.n
	b[at], b[at+1] = 1, 0
	if _, err := DecodeDSFA(b); err == nil {
		t.Fatal("a start vector that is not the identity was accepted")
	}
}
