package sfa

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// lazyGapDefs builds n bounded-gap rules (literal, counted wildcard
// window, literal): small component DFAs whose transformation monoids —
// and any combined product — blow far past eager D-SFA budgets. This is
// the corpus shape the eager builder rejects and lazy compilation
// exists for.
func lazyGapDefs(n int) []RuleDef {
	defs := make([]RuleDef, n)
	for i := range defs {
		defs[i] = RuleDef{
			Name:    fmt.Sprintf("gap%04d", i),
			Pattern: fmt.Sprintf("q%02x.{0,%d}z%02x", i%256, 8+i%9, (i*7)%256),
		}
	}
	return defs
}

// lazyOracleSet compiles defs as per-rule sequential DFAs — no D-SFA,
// no product, no budget — the cheapest authoritative verdict source.
func lazyOracleSet(t *testing.T, defs []RuleDef, opts ...Option) *RuleSet {
	t.Helper()
	opts = append([]Option{WithIsolatedRules(), WithEngine(EngineDFA)}, opts...)
	rs, err := NewRuleSetFromDefs(defs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// lazyTrafficInputs mixes random bytes with planted gap-rule matches so
// the oracle comparison exercises accepting paths, not just rejections.
func lazyTrafficInputs(defs []RuleDef, n, size int, seed int64) [][]byte {
	r := rand.New(rand.NewSource(seed))
	inputs := make([][]byte, n)
	for i := range inputs {
		in := make([]byte, size/2+r.Intn(size/2+1))
		for j := range in {
			in[j] = byte('a' + r.Intn(26))
		}
		// Plant a few rules' literal pairs at gap distances that sometimes
		// fit the window and sometimes overshoot it.
		for p := 0; p < 3 && len(in) > 40; p++ {
			d := defs[r.Intn(len(defs))]
			parts := strings.SplitN(d.Pattern, ".", 2)
			head := parts[0]
			tail := d.Pattern[strings.LastIndexByte(d.Pattern, '}')+1:]
			pos := r.Intn(len(in) - 40)
			copy(in[pos:], head)
			copy(in[pos+len(head)+r.Intn(14):], tail)
		}
		inputs[i] = in
	}
	return inputs
}

// checkLazyAgainstOracle compares MatchMask over every input.
func checkLazyAgainstOracle(t *testing.T, label string, lazy, oracle *RuleSet, inputs [][]byte) {
	t.Helper()
	got := make([]uint64, lazy.MaskWords())
	want := make([]uint64, oracle.MaskWords())
	matched := 0
	for _, in := range inputs {
		lazy.MatchMask(in, got)
		oracle.MatchMask(in, want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: input %q: lazy=%v isolated=%v", label, in, lazy.MaskNames(got), oracle.MaskNames(want))
		}
		for _, w := range want {
			matched += popcount(w)
		}
	}
	if matched == 0 {
		t.Fatalf("%s: no input matched any rule; the cross-check exercised nothing", label)
	}
}

func popcount(w uint64) int {
	n := 0
	for ; w != 0; w &= w - 1 {
		n++
	}
	return n
}

// lazyLegs are the two ways a lazily compiled gap-rule set is scanned.
// Behind the prefilter its rules are windowed and each candidate window
// is verified on the one rule's own DFA: no combined automaton is built
// and the budget is never charged. Without the prefilter every byte goes
// through the lazy tuple D-SFA, which fills, spills, evicts and
// re-enters under the budget. Every lazy test runs both, so neither
// path goes untested.
var lazyLegs = []struct {
	name     string
	opts     []Option
	combined bool
}{
	{"windowed", nil, false},
	{"combined", []Option{WithoutPrefilter()}, true},
}

// checkLazyLayout asserts which path the set's lazy shards are on after
// scanning: the combined tuple built and charged, or only rule DFAs.
func checkLazyLayout(t *testing.T, label string, rs *RuleSet, combined bool) {
	t.Helper()
	lazyShards := 0
	for i, sh := range rs.Shards() {
		if !sh.Lazy {
			continue
		}
		lazyShards++
		if combined {
			if sh.Layout != "lazy" || sh.Fills == 0 || sh.ResidentBytes == 0 {
				t.Fatalf("%s: lazy shard %d walked whole inputs and reports no combined automaton: %+v", label, i, sh)
			}
		} else if sh.Layout != "lazy-rules" || sh.Fills != 0 || sh.ResidentBytes != 0 || sh.SFAStates != 0 {
			t.Fatalf("%s: windowed lazy shard %d built a combined automaton: %+v", label, i, sh)
		}
	}
	if lazyShards == 0 {
		t.Fatalf("%s: no lazy shards for a corpus the eager budget cannot fit", label)
	}
}

// TestLazyRuleSetOracle cross-checks lazily compiled sets against
// isolated per-rule scanning across budget sizes — unlimited, roomy,
// and starved enough to force evictions mid-run — over mixed rule
// populations (some rules fit the eager budget, some do not), on both
// legs.
func TestLazyRuleSetOracle(t *testing.T) {
	defs := append(lazyGapDefs(24),
		RuleDef{Name: "lit-a", Pattern: "alpha"},
		RuleDef{Name: "lit-b", Pattern: "bravo[0-9]+"},
	)
	oracle := lazyOracleSet(t, defs, WithSearch())
	inputs := lazyTrafficInputs(defs, 30, 1<<10, 17)

	for _, leg := range lazyLegs {
		budgets := map[string]*TableBudget{
			"unlimited": nil,
			"roomy":     NewTableBudget(32 << 20),
			"starved":   NewTableBudget(48 << 10),
		}
		for name, b := range budgets {
			label := leg.name + "/" + name
			opts := append([]Option{WithSearch(), WithThreads(2), WithLazyCompile(), WithShardStateBudget(256)}, leg.opts...)
			if b != nil {
				opts = append(opts, WithTableBudget(b))
			}
			rs, err := NewRuleSetFromDefs(defs, opts...)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkLazyAgainstOracle(t, label, rs, oracle, inputs)
			checkLazyLayout(t, label, rs, leg.combined)
			if b == nil {
				continue
			}
			st := b.Stats()
			if !leg.combined {
				if st.UsedBytes != 0 || st.Fills != 0 {
					t.Fatalf("%s: per-rule verification charged the budget: %+v", label, st)
				}
				continue
			}
			// Grace floors may exceed a tiny limit, but not wildly.
			if name == "starved" && st.UsedBytes > st.LimitBytes*8 {
				t.Fatalf("%s: resident %d bytes far exceeds limit %d", label, st.UsedBytes, st.LimitBytes)
			}
			if name == "starved" && st.Evictions == 0 {
				t.Fatalf("%s: starved budget saw no evictions (resident %d, fills %d)", label, st.UsedBytes, st.Fills)
			}
		}
	}
}

// TestLazyRuleSetStreamOracle runs the streamed scan path under a
// starved budget: on the combined leg verdicts must survive mid-stream
// evictions because the carried mapping is a denotation, never a table
// reference; on the windowed leg the per-rule windows must survive any
// chunking.
func TestLazyRuleSetStreamOracle(t *testing.T) {
	defs := lazyGapDefs(16)
	oracle := lazyOracleSet(t, defs, WithSearch())
	inputs := lazyTrafficInputs(defs, 20, 4<<10, 23)
	for _, leg := range lazyLegs {
		budget := NewTableBudget(32 << 10)
		rs, err := NewRuleSetFromDefs(defs, append([]Option{WithSearch(), WithThreads(2), WithLazyCompile(),
			WithShardStateBudget(256), WithTableBudget(budget)}, leg.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(29))
		got := make([]uint64, rs.MaskWords())
		want := make([]uint64, oracle.MaskWords())
		for _, in := range inputs {
			st, err := rs.NewStream()
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(in); {
				hi := lo + 1 + r.Intn(700)
				if hi > len(in) {
					hi = len(in)
				}
				st.Write(in[lo:hi])
				lo = hi
			}
			st.Mask(got)
			oracle.MatchMask(in, want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: stream input %q: lazy=%v isolated=%v", leg.name, in, rs.MaskNames(got), oracle.MaskNames(want))
			}
		}
		checkLazyLayout(t, leg.name, rs, leg.combined)
		if st := budget.Stats(); leg.combined && st.Evictions == 0 {
			t.Fatalf("%s: starved budget saw no mid-stream evictions (resident %d, fills %d)", leg.name, st.UsedBytes, st.Fills)
		}
	}
}

// TestLazyRuleSetRejectedCorpus is the acceptance criterion of the lazy
// subsystem: a generated corpus of 500+ bounded-gap rules that the
// eager builder rejects outright (every split still exceeds the hard
// cap) compiles and scans under WithLazyCompile with memory bounded by
// the table budget, and verdicts stay byte-identical to per-rule
// isolated scanning.
func TestLazyRuleSetRejectedCorpus(t *testing.T) {
	n := 500
	inputsN := 12
	if raceEnabled || testing.Short() {
		n = 120
		inputsN = 6
	}
	defs := lazyGapDefs(n)
	eagerOpts := []Option{WithSearch(), WithThreads(2), WithSFACap(512)}

	if _, err := NewRuleSetFromDefs(defs, eagerOpts...); err == nil {
		t.Fatal("eager build of the gap corpus unexpectedly succeeded; the corpus no longer exercises lazy compilation")
	}

	oracle := lazyOracleSet(t, defs, WithSearch())
	inputs := lazyTrafficInputs(defs, inputsN, 2<<10, 31)
	for _, leg := range lazyLegs {
		budget := NewTableBudget(16 << 20)
		rs, err := NewRuleSetFromDefs(defs, append(append(eagerOpts, WithLazyCompile(), WithTableBudget(budget)), leg.opts...)...)
		if err != nil {
			t.Fatalf("%s: lazy build of the rejected corpus failed: %v", leg.name, err)
		}
		checkLazyAgainstOracle(t, "rejected-corpus/"+leg.name, rs, oracle, inputs)
		checkLazyLayout(t, "rejected-corpus/"+leg.name, rs, leg.combined)

		st := budget.Stats()
		if leg.combined && (st.UsedBytes == 0 || st.Fills == 0) {
			t.Fatalf("%s: lazy scan charged nothing (resident %d, fills %d)", leg.name, st.UsedBytes, st.Fills)
		}
		if !leg.combined && st.UsedBytes != 0 {
			t.Fatalf("%s: per-rule verification charged %d bytes", leg.name, st.UsedBytes)
		}
		if st.UsedBytes > st.LimitBytes {
			t.Fatalf("%s: resident bytes %d exceed the %d-byte budget", leg.name, st.UsedBytes, st.LimitBytes)
		}
	}
}

// TestLazyRuleSetConcurrentScan hammers one lazy set from many
// goroutines under a budget small enough to interleave fills and
// evictions with scans — the -race guard for the lazy engine.
func TestLazyRuleSetConcurrentScan(t *testing.T) {
	for _, leg := range lazyLegs {
		t.Run(leg.name, func(t *testing.T) { testLazyConcurrentScan(t, leg.opts, leg.combined) })
	}
}

func testLazyConcurrentScan(t *testing.T, legOpts []Option, combined bool) {
	defs := lazyGapDefs(12)
	budget := NewTableBudget(48 << 10)
	// The first scans of the combined leg race to build the tuple: eight
	// goroutines meet its sync.Once while a starved budget evicts.
	rs, err := NewRuleSetFromDefs(defs, append([]Option{WithSearch(), WithThreads(2), WithLazyCompile(),
		WithShardStateBudget(256), WithTableBudget(budget)}, legOpts...)...)
	if err != nil {
		t.Fatal(err)
	}
	oracle := lazyOracleSet(t, defs, WithSearch())
	inputs := lazyTrafficInputs(defs, 8, 1<<10, 37)
	want := make([][]uint64, len(inputs))
	for i, in := range inputs {
		want[i] = oracle.MatchMask(in, make([]uint64, oracle.MaskWords()))
	}
	iters := 3
	if raceEnabled {
		iters = 2
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]uint64, rs.MaskWords())
			for it := 0; it < iters; it++ {
				for i, in := range inputs {
					rs.MatchMask(in, dst)
					if !reflect.DeepEqual(dst, want[i]) {
						errc <- fmt.Errorf("goroutine %d input %d: %v vs %v", g, i, dst, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	checkLazyLayout(t, "concurrent", rs, combined)
	if st := budget.Stats(); combined && st.Evictions == 0 {
		t.Fatalf("starved budget saw no evictions under concurrent scans (resident %d, fills %d)", st.UsedBytes, st.Fills)
	}
}
