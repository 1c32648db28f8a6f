package core

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dfa"
)

// testLazy builds a Lazy the way LazyTuple does, through a budget
// handle — here of a private unlimited budget, which never evicts, so
// no Evictable stands behind it. maxStates ≤ 0 means 1<<20.
func testLazy(t *testing.T, d *dfa.DFA, maxStates int) *Lazy {
	t.Helper()
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	return newLazy(d, maxStates, NewTableBudget(0).Register(nil, 0))
}

// lazyRun advances from state `from` over text, constructing states on
// demand — the walk LazyTuple does per component.
func lazyRun(l *Lazy, from int32, text []byte) (int32, error) {
	q := from
	for _, b := range text {
		to, err := l.NextClass(q, int(l.D.BC.Of[b]))
		if err != nil {
			return 0, err
		}
		q = to
	}
	return q, nil
}

// lazyAccepting reports whether state id's mapping takes the DFA's start
// to an accepting state.
func lazyAccepting(l *Lazy, id int32) bool { return l.D.Accept[l.Map(id)[l.D.Start]] }

// lazyAccepts reports whole-input acceptance, building states as needed.
func lazyAccepts(l *Lazy, text []byte) (bool, error) {
	q, err := lazyRun(l, l.Start(), text)
	if err != nil {
		return false, err
	}
	return lazyAccepting(l, q), nil
}

func TestLazyMatchesEager(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		pat := randPattern(r, 3)
		d := dfa.MustCompilePattern(pat)
		eager, err := BuildDSFA(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		lazy := testLazy(t, d, 0)
		for i := 0; i < 30; i++ {
			w := randWord(r, 16)
			want := eager.Accepts(w)
			got, err := lazyAccepts(lazy, w)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("pattern %q: lazy disagrees on %q", pat, w)
			}
		}
		if lazy.NumStates() > eager.NumStates {
			t.Errorf("lazy materialized %d states, eager total is %d",
				lazy.NumStates(), eager.NumStates)
		}
	}
}

func TestLazyBoundedByInputLength(t *testing.T) {
	// Sect. V-A: on-the-fly construction creates at most one new state per
	// input byte (plus the identity).
	d := dfa.MustCompilePattern("([0-4]{5}[5-9]{5})*")
	lazy := testLazy(t, d, 0)
	input := []byte("0123456789")
	if _, err := lazyRun(lazy, lazy.Start(), input); err != nil {
		t.Fatal(err)
	}
	if lazy.NumStates() > len(input)+1 {
		t.Errorf("lazy states %d > input length + 1 = %d", lazy.NumStates(), len(input)+1)
	}
}

func TestLazyCap(t *testing.T) {
	d := dfa.MustCompilePattern("([0-4]{5}[5-9]{5})*") // 110 total states
	lazy := testLazy(t, d, 4)
	text := bytes.Repeat([]byte("0123456789"), 4)
	_, err := lazyRun(lazy, lazy.Start(), text)
	if !errors.Is(err, ErrTooManyStates) {
		t.Fatalf("got %v, want ErrTooManyStates", err)
	}
}

func TestLazyConcurrent(t *testing.T) {
	// Many goroutines walking the same lazy SFA must agree with the eager
	// one; run with -race to exercise the publication protocol.
	d := dfa.MustCompilePattern("(([02468][13579]){5})*")
	eager, err := BuildDSFA(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	lazy := testLazy(t, d, 0)
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for k := 0; k < 300; k++ {
				w := make([]byte, r.Intn(40))
				for j := range w {
					w[j] = byte('0' + r.Intn(10))
				}
				got, err := lazyAccepts(lazy, w)
				if err != nil {
					errs[seed] = err
					return
				}
				if got != eager.Accepts(w) {
					errs[seed] = errors.New("lazy/eager mismatch")
					return
				}
			}
		}(int64(i))
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if lazy.NumStates() > eager.NumStates {
		t.Errorf("lazy states %d exceed eager %d", lazy.NumStates(), eager.NumStates)
	}
}

func TestLazyMapAgreesWithEager(t *testing.T) {
	d := dfa.MustCompilePattern("([0-4]{3}[5-9]{3})*")
	eager, err := BuildDSFA(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	lazy := testLazy(t, d, 0)
	w := []byte("012567")
	le, err := lazyRun(lazy, lazy.Start(), w)
	if err != nil {
		t.Fatal(err)
	}
	ee := eager.Run(eager.Start, w)
	if !eqVec16(lazy.Map(le), eager.Map(ee)) {
		t.Error("lazy and eager mapping vectors differ")
	}
	if lazyAccepting(lazy, le) != eager.Accept[ee] {
		t.Error("acceptance differs")
	}
}
