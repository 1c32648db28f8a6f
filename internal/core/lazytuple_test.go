package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dfa"
)

// tupleVerdicts runs text through t and reports the per-rule verdict
// bits, exercising the chunked streaming path when split > 1.
func tupleVerdicts(t *LazyTuple, text []byte, split int) []uint64 {
	words := (t.Rules() + 63) / 64
	dst := make([]uint64, words)
	if split <= 1 {
		vec := make([]int16, t.VecLen())
		t.RunToVec(text, vec)
		t.OrAccept(vec, dst)
		return dst
	}
	cur := make([]int16, t.VecLen())
	tmp := make([]int16, t.VecLen())
	chunk := make([]int16, t.VecLen())
	t.Identity(cur)
	n := len(text)
	for i := 0; i < split; i++ {
		lo, hi := i*n/split, (i+1)*n/split
		t.RunToVec(text[lo:hi], chunk)
		t.Compose(tmp, cur, chunk)
		cur, tmp = tmp, cur
	}
	t.OrAccept(cur, dst)
	return dst
}

func testLazyTupleOracle(t *testing.T, opts LazyTupleOptions, trials int) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < trials; trial++ {
		k := 2 + r.Intn(4)
		dfas := make([]*dfa.DFA, k)
		pats := make([]string, k)
		for i := range dfas {
			pats[i] = randPattern(r, 3)
			dfas[i] = dfa.MustCompilePattern(pats[i])
		}
		lt, err := NewLazyTuple(dfas, opts)
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 40; w++ {
			word := randWord(r, 24)
			want := make([]uint64, (k+63)/64)
			for i, d := range dfas {
				if d.Accepts(word) {
					want[i>>6] |= 1 << (i & 63)
				}
			}
			for _, split := range []int{1, 3} {
				got := tupleVerdicts(lt, word, split)
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("trial %d patterns %q word %q split %d: got %b want %b (resets %d)",
							trial, pats, word, split, got[j], want[j], lt.Stats().Resets)
					}
				}
			}
		}
		lt.Close()
	}
}

func TestLazyTupleMatchesComponents(t *testing.T) {
	testLazyTupleOracle(t, LazyTupleOptions{}, 40)
}

func TestLazyTupleUnderTinyBudget(t *testing.T) {
	// A budget far below any working set: every page charge beyond the
	// grace floor fails, forcing constant spill–evict–re-enter cycles.
	// Verdicts must not change.
	b := NewTableBudget(1 << 10)
	testLazyTupleOracle(t, LazyTupleOptions{Budget: b}, 15)
}

func TestLazyTupleUnderTinyCaps(t *testing.T) {
	// State caps at the enforced minima: mid-scan resets via the cap
	// path instead of the budget path.
	testLazyTupleOracle(t, LazyTupleOptions{MaxStates: 1, CompMaxStates: 1}, 15)
}

func TestLazyTupleEvictsUnderSharedBudget(t *testing.T) {
	// Gap patterns (literal, bounded wildcard window, literal) keep many
	// in-flight possibilities, so random words materialize many distinct
	// transformation states — the adversarial shape for lazy caches.
	r := rand.New(rand.NewSource(7))
	dfasA := []*dfa.DFA{
		dfa.MustCompilePattern("[abc]*a[abc]{0,10}b[abc]*"),
		dfa.MustCompilePattern("[abc]*b[abc]{0,8}c[abc]*"),
	}
	dfasB := []*dfa.DFA{
		dfa.MustCompilePattern("[abc]*c[abc]{0,9}a[abc]*"),
		dfa.MustCompilePattern("(ab)*c"),
	}
	// Enough for either structure's working set, not both: scanning
	// alternately must trigger LRU evictions of the idle one.
	ltA, err := NewLazyTuple(dfasA, LazyTupleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := ltA.Stats(); st.ResidentBytes != 0 || st.States != 0 || ltA.Built() {
		t.Fatalf("an unscanned structure holds tables: %+v", st)
	}
	ltA.RunToVec(nil, make([]int16, ltA.VecLen())) // the first walk builds the identity working set
	wsA := ltA.Stats().ResidentBytes
	ltA.Close()

	budget := NewTableBudget(wsA + wsA/2)
	a, err := NewLazyTuple(dfasA, LazyTupleOptions{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewLazyTuple(dfasB, LazyTupleOptions{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	vecA := make([]int16, a.VecLen())
	vecB := make([]int16, b.VecLen())
	for i := 0; i < 80; i++ {
		a.RunToVec(randWord(r, 256), vecA)
		b.RunToVec(randWord(r, 256), vecB)
	}
	st := budget.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under shared budget (used %d, limit %d)", st.Used, st.Limit)
	}
	if st.Used > st.Limit+4*wsA {
		t.Fatalf("usage %d far exceeds limit %d", st.Used, st.Limit)
	}
}

func TestLazyTupleEvictionFreesMemory(t *testing.T) {
	// Counters modulo the first six primes: a^k reaches a new tuple for
	// every k below their product, while each component holds at most
	// 13 states — so the tuple layer's intern map and tuple slice carry
	// most of the bytes. An eviction releases their charge, and the heap
	// must shrink by about as much: a cleared map keeps its buckets and
	// a truncated slice its capacity.
	primes := []int{2, 3, 5, 7, 11, 13}
	dfas := make([]*dfa.DFA, len(primes))
	n := 1
	for i, p := range primes {
		dfas[i] = dfa.MustCompilePattern(fmt.Sprintf("(a{%d})*", p))
		n *= p
	}
	lt, err := NewLazyTuple(dfas, LazyTupleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	text := bytes.Repeat([]byte("a"), n)
	lt.RunToVec(text, make([]int16, lt.VecLen()))
	if st := lt.Stats(); st.States != n {
		t.Fatalf("materialized %d tuple states, want %d", st.States, n)
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	released := lt.BudgetEvict()
	freed := before - heap()
	runtime.KeepAlive(text)
	if freed < released*3/4 {
		t.Fatalf("eviction released %d charged bytes but the heap shrank by %d", released, freed)
	}
}

func TestTableBudgetHierarchy(t *testing.T) {
	root := NewTableBudget(1000)
	child := root.Child(600)
	h := child.Register(evictNop{}, 0)
	defer h.Close()
	if !h.TryCharge(500) {
		t.Fatal("charge within both limits refused")
	}
	if h.TryCharge(200) {
		t.Fatal("charge past child limit accepted")
	}
	if root.Stats().Used != 500 || child.Stats().Used != 500 {
		t.Fatalf("hierarchy accounting: root %d child %d", root.Stats().Used, child.Stats().Used)
	}
	h2 := root.Register(evictNop{}, 0)
	defer h2.Close()
	if !h2.TryCharge(400) {
		t.Fatal("root headroom refused")
	}
	if h2.TryCharge(200) {
		t.Fatal("charge past root limit accepted")
	}
	h.Release(500)
	if root.Stats().Used != 400 {
		t.Fatalf("release did not propagate: root %d", root.Stats().Used)
	}
	h.Close()
	h2.Close()
	if root.Stats().Used != 0 {
		t.Fatalf("close did not release: root %d", root.Stats().Used)
	}
}

type evictNop struct{}

func (evictNop) BudgetEvict() int64 { return 0 }

// TestLazyTupleConcurrentFillEvict hammers two structures sharing a
// budget small enough to force cross-evictions while scans are in
// flight — the -race build checks the fill/evict synchronization.
func TestLazyTupleConcurrentFillEvict(t *testing.T) {
	budget := NewTableBudget(64 << 10)
	mk := func(pats ...string) *LazyTuple {
		dfas := make([]*dfa.DFA, len(pats))
		for i, p := range pats {
			dfas[i] = dfa.MustCompilePattern(p)
		}
		lt, err := NewLazyTuple(dfas, LazyTupleOptions{Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		return lt
	}
	a := mk("[abc]*a[abc]{0,10}b[abc]*", "[abc]*b[abc]{0,8}c[abc]*", "(a|b)*c")
	defer a.Close()
	b := mk("[abc]*c[abc]{0,9}a[abc]*", "c*(ab)*")
	defer b.Close()

	iters := 200
	if raceEnabled {
		iters = 60
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			lt := a
			if seed%2 == 0 {
				lt = b
			}
			vec := make([]int16, lt.VecLen())
			dst := make([]uint64, 1)
			for i := 0; i < iters; i++ {
				w := randWord(r, 96)
				lt.RunToVec(w, vec)
				dst[0] = 0
				lt.OrAccept(vec, dst)
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestLazyTupleDirectoriesGrowOnDemand: the page directories of the
// tuple rows and of every component start at a few entries, double as
// states are materialized — while other goroutines keep walking on the
// directory snapshot they loaded — and are charged to the budget like the
// pages they index, so a freshly built structure is charged its identity
// working set and nothing sized by its state cap.
func TestLazyTupleDirectoriesGrowOnDemand(t *testing.T) {
	// Bounded gaps between three-byte tokens: small DFAs whose D-SFAs, and
	// the tuples over them, run to hundreds of reachable states.
	pats := []string{
		"[a-d]*abb[a-d]{0,8}cdd[a-d]*", "[a-d]*bcc[a-d]{0,10}daa[a-d]*",
		"[a-d]*cdd[a-d]{0,9}abb[a-d]*", "[a-d]*daa[a-d]{0,11}bcc[a-d]*",
	}
	dfas := make([]*dfa.DFA, len(pats))
	for i, p := range pats {
		dfas[i] = dfa.MustCompilePattern(p)
	}
	budget := NewTableBudget(0)
	lt, err := NewLazyTuple(dfas, LazyTupleOptions{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer lt.Close()
	lt.RunToVec(nil, make([]int16, lt.VecLen()))
	if fresh := lt.Stats().ResidentBytes; fresh > 256<<10 {
		t.Fatalf("a freshly built structure is charged %d bytes", fresh)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			vec := make([]int16, lt.VecLen())
			for i := 0; i < 40; i++ {
				w := make([]byte, 400)
				for j := range w {
					w[j] = "abcd"[r.Intn(4)]
				}
				lt.RunToVec(w, vec)
				got := make([]uint64, 1)
				lt.OrAccept(vec, got)
				for k, d := range dfas {
					if d.Accepts(w) != (got[0]>>k&1 == 1) {
						errs <- "verdict of rule " + pats[k] + " on " + string(w)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if n := len(lt.rows.load()); n <= minDirPages {
		t.Fatalf("the row directory never grew: %d entries for %d states", n, lt.Stats().States)
	}
	grown := 0
	var charged int64
	for _, c := range lt.comps {
		if len(c.pages.load()) > minDirPages {
			grown++
		}
		charged += c.bytes
	}
	if grown == 0 {
		t.Fatalf("no component directory ever grew: %+v", lt.Stats())
	}
	if st := budget.Stats(); st.Used != charged+lt.bytes || st.Evictions != 0 {
		t.Fatalf("budget holds %d bytes, the tables account for %d (+%d): %+v", st.Used, charged, lt.bytes, st)
	}
}
