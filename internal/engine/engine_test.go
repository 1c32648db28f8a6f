package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/syntax"
	"repro/internal/textgen"
)

// allEngines builds one of every engine family for the pattern, at the
// given thread count, both reductions where applicable.
func allEngines(t *testing.T, pattern string, threads int) []Matcher {
	t.Helper()
	node := syntax.MustParse(pattern, 0)
	d := dfa.MustCompilePattern(pattern)
	s, err := core.BuildDSFA(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := NewNFASim(node)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := NewSFALazy(d, threads, 0)
	if err != nil {
		t.Fatal(err)
	}
	return []Matcher{
		oracle,
		NewDFASequential(d),
		NewDFASpeculative(d, threads, ReduceSequential),
		NewDFASpeculative(d, threads, ReduceTree),
		NewDFASpeculative(d, threads, ReduceSequential, WithSpawn()),
		NewSFAParallel(s, threads, ReduceSequential),
		NewSFAParallel(s, threads, ReduceTree),
		NewSFAParallel(s, threads, ReduceSequential, WithLayout(LayoutClass)),
		NewSFAParallel(s, threads, ReduceSequential, WithLayout(LayoutI32), WithSpawn()),
		NewSFAParallel(s, threads, ReduceTree, WithLayout(LayoutU16)),
		lazy,
	}
}

func TestAllEnginesAgreeKnownCases(t *testing.T) {
	cases := []struct {
		pattern string
		inputs  []string
	}{
		{"(ab)*", []string{"", "ab", "abab", "a", "ba", "ababab", "abba"}},
		{"([0-4]{2}[5-9]{2})*", []string{"", "0055", "00550156", "0505", "005"}},
		{"(([02468][13579]){5})*", []string{"", "0123456789", "0123456780"}},
		{"(a|bc)*d?", []string{"", "a", "bcd", "abcabc", "dd", "cb"}},
	}
	for _, c := range cases {
		for _, threads := range []int{1, 2, 3, 4, 7} {
			engines := allEngines(t, c.pattern, threads)
			for _, input := range c.inputs {
				want := engines[0].Match([]byte(input))
				for _, e := range engines[1:] {
					if got := e.Match([]byte(input)); got != want {
						t.Errorf("pattern %q input %q: %s = %v, oracle = %v",
							c.pattern, input, e.Name(), got, want)
					}
				}
			}
		}
	}
}

func TestAllEnginesAgreeRandom(t *testing.T) {
	r := rand.New(rand.NewSource(303))
	patterns := []string{
		"(ab)*",
		"(a|b)*abb",
		"(a|bc)*",
		"a+(b|c)*a?",
		"([ab]{3}c)*",
	}
	for _, pat := range patterns {
		engines := allEngines(t, pat, 3)
		for i := 0; i < 60; i++ {
			w := make([]byte, r.Intn(50))
			for j := range w {
				w[j] = byte('a' + r.Intn(3))
			}
			want := engines[0].Match(w)
			for _, e := range engines[1:] {
				if got := e.Match(w); got != want {
					t.Fatalf("pattern %q input %q: %s = %v, oracle = %v",
						pat, w, e.Name(), got, want)
				}
			}
		}
	}
}

func TestEnginesOnAcceptedMegabyte(t *testing.T) {
	// A larger run over an accepted input, exercising multi-chunk paths.
	pattern := "([0-4]{5}[5-9]{5})*"
	text := bytes.Repeat([]byte("0123455678"), 10_000) // 100 KB accepted
	engines := allEngines(t, pattern, 4)
	for _, e := range engines {
		if !e.Match(text) {
			t.Errorf("%s rejected an accepted input", e.Name())
		}
	}
	// Corrupt one byte near the middle: all engines must reject.
	text[50_003] = 'x'
	for _, e := range engines {
		if e.Match(text) {
			t.Errorf("%s accepted a corrupted input", e.Name())
		}
	}
}

func TestInputShorterThanThreads(t *testing.T) {
	engines := allEngines(t, "(ab)*", 8)
	for _, e := range engines {
		if !e.Match([]byte("ab")) {
			t.Errorf("%s rejected 'ab' with 8 threads", e.Name())
		}
		if !e.Match(nil) {
			t.Errorf("%s rejected empty input", e.Name())
		}
		if e.Match([]byte("a")) {
			t.Errorf("%s accepted 'a'", e.Name())
		}
	}
}

func TestChunksCoverAndPartition(t *testing.T) {
	for n := 0; n < 40; n++ {
		for p := 1; p <= 9; p++ {
			spans := chunks(n, p)
			if len(spans) != p {
				t.Fatalf("chunks(%d,%d) returned %d spans", n, p, len(spans))
			}
			off := 0
			for _, s := range spans {
				if s[0] != off || s[1] < s[0] {
					t.Fatalf("chunks(%d,%d) broken: %v", n, p, spans)
				}
				off = s[1]
			}
			if off != n {
				t.Fatalf("chunks(%d,%d) does not cover: %v", n, p, spans)
			}
			// Balance: sizes differ by at most 1.
			min, max := n, 0
			for _, s := range spans {
				size := s[1] - s[0]
				if size < min {
					min = size
				}
				if size > max {
					max = size
				}
			}
			if max-min > 1 {
				t.Fatalf("chunks(%d,%d) unbalanced: %v", n, p, spans)
			}
		}
	}
}

func TestSpeculativeMatchesPaperSemantics(t *testing.T) {
	// Algorithm 3 invariant: the chunk mapping applied to any state equals
	// a direct DFA run from that state.
	d := dfa.MustCompilePattern("(([02468][13579]){5})*")
	m := NewDFASpeculative(d, 1, ReduceSequential)
	chunk := []byte("0123")
	tm := m.simulateChunk(chunk)
	for q := int32(0); q < int32(d.NumStates); q++ {
		if want := d.Run(q, chunk); tm[q] != want {
			t.Fatalf("T[%d] = %d, direct run = %d", q, tm[q], want)
		}
	}
}

func TestLazyEngineCapEvicts(t *testing.T) {
	// A state cap below the input's working set resets the automaton and
	// re-enters mid-scan; it never costs a verdict, neither on the input
	// that reached it nor on the next one. r20 crosses even the minimum
	// caps core.LazyTuple enforces.
	for _, n := range []int{5, 20} {
		d := dfa.MustCompilePattern(fmt.Sprintf("([0-4]{%d}[5-9]{%d})*", n, n))
		m, err := NewSFALazy(d, 2, 3) // absurdly low cap
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range [][]byte{textgen.RnText(n, 8<<10, 1), nil} {
			if got, want := m.Match(in), d.Accepts(in); got != want {
				t.Fatalf("r%d, %d-byte input: lazy = %v, DFA = %v", n, len(in), got, want)
			}
		}
		if n == 20 && m.Stats().Resets == 0 {
			t.Fatal("r20: the input never reached the state cap")
		}
	}
}

func TestLazyEngineCapConcurrent(t *testing.T) {
	// Goroutines sharing one capped engine evict each other's states
	// mid-scan; run with -race to exercise the spill–evict–re-enter path.
	d := dfa.MustCompilePattern("([0-4]{20}[5-9]{20})*")
	m, err := NewSFALazy(d, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(seed int64) {
			r := rand.New(rand.NewSource(seed))
			for k := 0; k < 6; k++ {
				in := textgen.RnText(20, 1+r.Intn(5<<10), seed)
				if k%2 == 1 && len(in) > 0 {
					in[r.Intn(len(in))] ^= 1 // a digit off its block: rejected unless it stays in range
				}
				if got, want := m.Match(in), d.Accepts(in); got != want {
					errs <- fmt.Errorf("worker %d, %d-byte input: lazy = %v, DFA = %v", seed, len(in), got, want)
					return
				}
			}
			errs <- nil
		}(int64(w))
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if m.Stats().Resets == 0 {
		t.Fatal("the inputs never reached the state cap")
	}
}

func TestLazyEngineReclaimed(t *testing.T) {
	// A dropped lazy engine must be collectable: its finalizer closes the
	// tuple's budget handle, and an engine that reached itself through its
	// own fields would keep its tables, and their charge, forever.
	d := dfa.MustCompilePattern("([0-4]{20}[5-9]{20})*")
	budget := core.NewTableBudget(0)
	for i := 0; i < 8; i++ {
		lt, err := core.NewLazyTuple([]*dfa.DFA{d}, core.LazyTupleOptions{Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		NewLazyMultiSFA(lt, 2).Match(textgen.RnText(20, 8<<10, 1))
	}
	for i := 0; i < 100 && budget.Stats().Used > 0; i++ {
		runtime.GC() // finalizers run after the cycle that found the engine dead
		time.Sleep(time.Millisecond)
	}
	if used := budget.Stats().Used; used != 0 {
		t.Fatalf("%d bytes still charged after every engine was dropped", used)
	}
}

func TestSFAParallelManyThreadsConsistency(t *testing.T) {
	// Theorem 3 at engine level: any thread count yields the same verdict.
	d := dfa.MustCompilePattern("([0-4]{3}[5-9]{3})*")
	s, err := core.BuildDSFA(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(88))
	for trial := 0; trial < 30; trial++ {
		w := make([]byte, r.Intn(200))
		for j := range w {
			w[j] = byte('0' + r.Intn(10))
		}
		want := NewSFAParallel(s, 1, ReduceSequential).Match(w)
		for p := 2; p <= 16; p *= 2 {
			for _, red := range []Reduction{ReduceSequential, ReduceTree} {
				if got := NewSFAParallel(s, p, red).Match(w); got != want {
					t.Fatalf("p=%d %v: got %v want %v on %q", p, red, got, want, w)
				}
			}
		}
	}
}

func TestEngineNames(t *testing.T) {
	engines := allEngines(t, "(ab)*", 2)
	seen := map[string]bool{}
	for _, e := range engines {
		name := e.Name()
		if name == "" {
			t.Error("empty engine name")
		}
		if seen[name] {
			t.Errorf("duplicate engine name %q", name)
		}
		seen[name] = true
	}
}

// BenchmarkOneRuleMatch64 and BenchmarkOneRuleComposeChunk1B measure the
// single-pattern engine's fixed costs at p = 1 — a 64-byte Match and a
// 1-byte ComposeChunk over a search-bracketed pattern — the calls whose
// per-call overhead a single pattern pays on every small input.
func oneRuleBenchEngine(b *testing.B) *MultiSFA {
	d, err := dfa.CompilePattern(`.*(`+lockstepPatterns[0]+`).*`, syntax.DotAll, 0)
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.BuildDSFA(d, 0)
	if err != nil {
		b.Fatal(err)
	}
	return NewSFAParallel(s, 1, ReduceSequential)
}

var sinkOneRule bool

func BenchmarkOneRuleMatch64(b *testing.B) {
	m := oneRuleBenchEngine(b)
	traffic, _ := textgen.Traffic{}.Generate(4096, 1)
	text := traffic[:64]
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkOneRule = m.Match(text)
	}
}

func BenchmarkOneRuleComposeChunk1B(b *testing.B) {
	m := oneRuleBenchEngine(b)
	cur, tmp := make([]int16, m.MappingLen()), make([]int16, m.MappingLen())
	m.InitMapping(cur)
	one := []byte("H")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, tmp = m.ComposeChunk(cur, tmp, one)
	}
}
