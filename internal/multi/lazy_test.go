package multi

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
)

// lazyTestPatterns mixes rules whose D-SFA dry run fits a small budget
// with bounded-gap rules whose transformation monoid overruns it — the
// population the lazy planner must split.
var lazyTestPatterns = []string{
	`(ab)*`,
	`[abc]*a[abc]{0,14}b[abc]*`,
	`a[ab]*b`,
	`[abc]*b[abc]{0,12}c[abc]*`,
	`[abc]*c[abc]{0,13}a[abc]*`,
	`abba`,
}

// lazyTestOptions forces the gap rules onto the lazy path: the tiny
// SFABudget makes their estimation dry runs fail (fits == false).
func lazyTestOptions(budget *core.TableBudget) Options {
	return Options{Lazy: true, SFABudget: 64, Budget: budget, Threads: 2}
}

func lazyTestInputs() [][]byte {
	inputs := [][]byte{
		nil, []byte("ab"), []byte("abba"), []byte("aab"),
		[]byte("acccb"), []byte("bccccc"), []byte("caaaa"),
	}
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		in := make([]byte, r.Intn(200))
		for j := range in {
			in[j] = "abc"[r.Intn(3)]
		}
		inputs = append(inputs, in)
	}
	return inputs
}

func TestLazyPlannerSplitsAndMatches(t *testing.T) {
	nodes := parseAll(t, lazyTestPatterns)
	ds := oracleDFAs(t, lazyTestPatterns)
	s, err := Compile(nodes, lazyTestOptions(core.NewTableBudget(0)))
	if err != nil {
		t.Fatal(err)
	}
	var lazy, eager int
	for _, inf := range s.Shards() {
		if inf.Lazy {
			lazy++
			for _, r := range inf.Rules {
				if lazyTestPatterns[r][0] != '[' {
					t.Fatalf("rule %d (%s) unexpectedly lazy", r, lazyTestPatterns[r])
				}
			}
		} else {
			eager++
		}
	}
	if lazy == 0 || eager == 0 {
		t.Fatalf("expected a mixed plan, got %d lazy / %d eager shards", lazy, eager)
	}
	dst := make([]uint64, s.Words())
	for _, in := range lazyTestInputs() {
		mask := s.Scan(in, 0, dst)
		for r, d := range ds {
			want := d.Accepts(in)
			if got := mask[r>>6]&(1<<(r&63)) != 0; got != want {
				t.Fatalf("input %q rule %d (%s): lazy set=%v isolated=%v",
					in, r, lazyTestPatterns[r], got, want)
			}
		}
	}
}

// TestLazyStickyFallback: with an affordable budget, enabling Lazy must
// not change the plan — every rule fits, so every shard stays eager.
func TestLazyStickyFallback(t *testing.T) {
	nodes := parseAll(t, testPatterns)
	s, err := Compile(nodes, Options{Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, inf := range s.Shards() {
		if inf.Lazy {
			t.Fatalf("affordable rules %v routed to a lazy shard", inf.Rules)
		}
	}
}

// TestLazySetStreamUnderEviction drives the streaming path while a
// starved budget forces mid-stream resets, checking verdicts against
// whole-input scans. The set has no prefilter, so every Write walks the
// lazy tuple D-SFA and carries its mapping: this is the spill / evict /
// re-enter path, which windowed lazy shards no longer reach.
func TestLazySetStreamUnderEviction(t *testing.T) {
	nodes := parseAll(t, lazyTestPatterns)
	ds := oracleDFAs(t, lazyTestPatterns)
	budget := core.NewTableBudget(2 << 10)
	s, err := Compile(nodes, lazyTestOptions(budget))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if st := budget.Stats(); !t.Failed() && st.Evictions == 0 {
			t.Fatalf("the starved budget evicted nothing mid-stream: %+v", st)
		}
	}()
	r := rand.New(rand.NewSource(13))
	dst := make([]uint64, s.Words())
	for trial := 0; trial < 20; trial++ {
		in := make([]byte, 64+r.Intn(300))
		for j := range in {
			in[j] = "abc"[r.Intn(3)]
		}
		st := s.NewStream()
		for lo := 0; lo < len(in); {
			hi := lo + 1 + r.Intn(48)
			if hi > len(in) {
				hi = len(in)
			}
			st.Write(in[lo:hi])
			lo = hi
		}
		mask := st.Mask(dst)
		for ri, d := range ds {
			want := d.Accepts(in)
			if got := mask[ri>>6]&(1<<(ri&63)) != 0; got != want {
				t.Fatalf("trial %d rule %d (%s) input %q: stream=%v isolated=%v",
					trial, ri, lazyTestPatterns[ri], in, got, want)
			}
		}
	}
}

func TestLazySetNotSerializable(t *testing.T) {
	nodes := parseAll(t, lazyTestPatterns)
	keys := make([]string, len(nodes))
	for i, p := range lazyTestPatterns {
		keys[i] = p
	}
	s, err := Compile(nodes, lazyTestOptions(core.NewTableBudget(0)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Encode(&buf, keys); !errors.Is(err, ErrNotSerializable) {
		t.Fatalf("Encode of a lazy set: err=%v, want ErrNotSerializable", err)
	}
}
