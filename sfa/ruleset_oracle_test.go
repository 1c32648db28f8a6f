package sfa

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/snort"
	"repro/internal/syntax"
	"repro/internal/textgen"
)

// snortDefs converts a slice of the corpus into rule definitions with
// per-rule flags (a private copy of harness.SFAFlags — importing harness
// from an in-package sfa test would cycle).
func snortDefs(rules []snort.Rule) []RuleDef {
	defs := make([]RuleDef, len(rules))
	for i, r := range rules {
		var fl Flag
		if r.Flags&syntax.FoldCase != 0 {
			fl |= FoldCase
		}
		if r.Flags&syntax.DotAll != 0 {
			fl |= DotAll
		}
		defs[i] = RuleDef{Name: fmt.Sprintf("r%03d", r.ID), Pattern: r.Pattern, Flags: fl}
	}
	return defs
}

// oracleInputs mixes synthetic traffic lines (with planted attacks, so
// rules actually fire) and random byte strings.
func oracleInputs(t *testing.T) [][]byte {
	t.Helper()
	data, planted := textgen.Traffic{SuspiciousPerMille: 30}.Generate(1<<16, 11)
	if planted == 0 {
		t.Fatal("traffic generator planted nothing")
	}
	inputs := [][]byte{nil, data[:1<<12]}
	lines := textgen.Lines(data)
	for i := 0; i < len(lines); i += 7 {
		inputs = append(inputs, lines[i])
	}
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 40; i++ {
		in := make([]byte, r.Intn(200))
		for j := range in {
			in[j] = byte(r.Intn(256))
		}
		inputs = append(inputs, in)
	}
	return inputs
}

// TestRuleSetCombinedShardedIsolatedAgree is the oracle cross-check the
// combined architecture ships under: over the snort sample rules,
// combined (automatic), sharded (K=2, K=4), and isolated modes must
// report the identical rule set for every input. Runs under -race via
// `make race` like the rest of the suite.
func TestRuleSetCombinedShardedIsolatedAgree(t *testing.T) {
	n := 12
	if raceEnabled {
		n = 8 // same modes and shard shapes, cheaper builds
	}
	defs := snortDefs(snort.ScanSample(n))
	if len(defs) < n {
		t.Fatalf("scan sample too small: %d rules", len(defs))
	}
	base := []Option{WithSearch(), WithThreads(2), WithShardStateBudget(8192)}

	modes := map[string][]Option{
		"combined":  base,
		"sharded-2": append([]Option{WithShards(2)}, base...),
		"sharded-4": append([]Option{WithShards(4)}, base...),
		"isolated":  append([]Option{WithIsolatedRules()}, base...),
	}
	sets := make(map[string]*RuleSet, len(modes))
	for name, opts := range modes {
		rs, err := NewRuleSetFromDefs(defs, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sets[name] = rs
	}
	if k := sets["combined"].NumShards(); k >= len(defs) {
		t.Fatalf("combined mode degenerated to %d shards for %d rules", k, len(defs))
	}

	inputs := oracleInputs(t)
	matched := 0
	for _, in := range inputs {
		want := sets["isolated"].Scan(in, 0)
		matched += len(want)
		for name, rs := range sets {
			if name == "isolated" {
				continue
			}
			if got := rs.Scan(in, 0); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s input %q: Scan=%v isolated=%v", name, in, got, want)
			}
			if got, wantAny := rs.Any(in), len(want) > 0; got != wantAny {
				t.Fatalf("%s input %q: Any=%v want %v", name, in, got, wantAny)
			}
		}
	}
	if matched == 0 {
		t.Fatal("no input matched any rule; the cross-check exercised nothing")
	}
}

// TestRuleSetConcurrentScan hammers one combined set from many
// goroutines (the -race guard for the shared scan contexts).
func TestRuleSetConcurrentScan(t *testing.T) {
	defs := snortDefs(snort.ScanSample(8))
	rs, err := NewRuleSetFromDefs(defs, WithSearch(), WithThreads(2), WithShardStateBudget(4096))
	if err != nil {
		t.Fatal(err)
	}
	inputs := oracleInputs(t)
	want := make([][]string, len(inputs))
	for i, in := range inputs {
		want[i] = rs.Scan(in, 0)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i, in := range inputs {
				if got := rs.Scan(in, 0); !reflect.DeepEqual(got, want[i]) {
					done <- fmt.Errorf("goroutine %d input %d: %v vs %v", g, i, got, want[i])
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

// armSchedules are the block-arm schedules the prefilter's block driver
// is forced through (multi.Set.ForceArm); nil is the measured choice.
var armSchedules = map[string]func(int64) bool{
	"measured":    nil,
	"cascade":     func(int64) bool { return false },
	"whole":       func(int64) bool { return true },
	"alternating": func(b int64) bool { return b&1 == 1 },
	"random":      func(b int64) bool { return (uint64(b)*0x9e3779b97f4a7c15)>>63 == 1 },
}

// TestRuleSetArmSchedulesAgree is the public face of the block driver's
// contract (internal/multi has the randomized twin): whichever arm each
// block takes — literal cascade or whole-block lock-step walk — and
// however the input is chunked or composed, at 1, 2 and 4 threads, a
// combined set's masks are byte-identical to WithIsolatedRules and to
// its own one-shot MatchMask.
func TestRuleSetArmSchedulesAgree(t *testing.T) {
	n, size := 12, 300<<10
	if raceEnabled {
		n, size = 8, 150<<10
	}
	defs := append(snortDefs(snort.ScanSample(n)), prefilterDefs()...)
	iso, err := NewRuleSetFromDefs(defs, WithSearch(), WithIsolatedRules())
	if err != nil {
		t.Fatal(err)
	}
	data, planted := textgen.Traffic{SuspiciousPerMille: 5}.Generate(size, 17)
	if planted == 0 {
		t.Fatal("traffic generator planted nothing")
	}
	// Occurrences across the 64 KiB edges of a one-shot scan's blocks.
	for e, frags := 64<<10, []string{"a needle here", "exploit-77", "SeCrEt", "begin123end"}; e < len(data); e += 64 << 10 {
		f := frags[(e>>16)%len(frags)]
		copy(data[e-len(f)/2:], f)
	}
	inputs := [][]byte{data, data[:5000], data[70000:70300], []byte("needl"), nil}
	want := make([][]uint64, len(inputs))
	for i, in := range inputs {
		want[i] = append([]uint64(nil), iso.MatchMask(in, make([]uint64, iso.MaskWords()))...)
	}
	if want[0][0] == 0 || reflect.DeepEqual(want[0], want[2]) {
		t.Fatalf("fixture masks too plain to tell schedules apart: %x %x", want[0], want[2])
	}
	r := rand.New(rand.NewSource(29))
	for _, threads := range []int{1, 2, 4} {
		rs, err := NewRuleSetFromDefs(defs, WithSearch(), WithThreads(threads), WithShardStateBudget(4096))
		if err != nil {
			t.Fatal(err)
		}
		if pf := rs.PrefilterStats(); pf.WindowShards < 2 {
			t.Fatalf("fixture planned %d window shards, want several: %+v", pf.WindowShards, pf)
		}
		got := make([]uint64, rs.MaskWords())
		for name, sched := range armSchedules {
			rs.set.ForceArm(sched)
			for i, in := range inputs {
				what := fmt.Sprintf("p=%d schedule %s input %d (%d B)", threads, name, i, len(in))
				if m := rs.MatchMask(in, got); !reflect.DeepEqual(m, want[i]) {
					t.Fatalf("%s: MatchMask %x, isolated %x", what, m, want[i])
				}
				if names := rs.Scan(in, 0); !reflect.DeepEqual(names, rs.MaskNames(want[i])) {
					t.Fatalf("%s: Scan %v, isolated %v", what, names, rs.MaskNames(want[i]))
				}
				for _, sizes := range [][]int{{200 << 10}, {64 << 10}, {4096, 100, 70000, 5000}, {1, 7, 3}} {
					if sizes[0] == 1 && len(in) > 8<<10 {
						continue // byte-sized writes only over the small inputs
					}
					// Three segments on their own streams, folded out of order.
					a, b := r.Intn(len(in)+1), r.Intn(len(in)+1)
					a, b = min(a, b), max(a, b)
					var segs [3]*RuleStream
					for k, seg := range [][]byte{in[:a], in[a:b], in[b:]} {
						if segs[k], err = rs.NewStream(); err != nil {
							t.Fatal(err)
						}
						for j := 0; len(seg) > 0; j++ {
							w := min(sizes[j%len(sizes)], len(seg))
							segs[k].Write(seg[:w])
							seg = seg[w:]
						}
					}
					if err := segs[1].Compose(segs[2]); err != nil {
						t.Fatal(err)
					}
					if err := segs[0].Compose(segs[1]); err != nil {
						t.Fatal(err)
					}
					if m := segs[0].Mask(got); !reflect.DeepEqual(m, want[i]) {
						t.Fatalf("%s: streamed in %v, cut at %d and %d: %x, isolated %x", what, sizes, a, b, m, want[i])
					}
				}
			}
		}
	}
}

// TestRuleSetHotPathsZeroAllocPerArm gates the allocation contract of
// the two hot paths on both arms of the block driver and across a
// switch between them: RuleSet.MatchMask and RuleStream.Write allocate
// nothing in steady state.
func TestRuleSetHotPathsZeroAllocPerArm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	defs := append(snortDefs(snort.ScanSample(8)), prefilterDefs()...)
	data, _ := textgen.Traffic{SuspiciousPerMille: 5}.Generate(256<<10, 3)
	for _, threads := range []int{1, 2} {
		rs, err := NewRuleSetFromDefs(defs, WithSearch(), WithThreads(threads), WithShardStateBudget(4096))
		if err != nil {
			t.Fatal(err)
		}
		st, err := rs.NewStream()
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]uint64, rs.MaskWords())
		var flip int64
		schedules := map[string]func(int64) bool{
			"cascade": func(int64) bool { return false },
			"whole":   func(int64) bool { return true },
			"switch":  func(int64) bool { flip++; return flip&1 == 0 },
		}
		for name, sched := range schedules {
			rs.set.ForceArm(sched)
			pass := func() {
				rs.MatchMask(data, dst)
				st.Write(data[:64<<10])
				st.Write(data[64<<10 : 64<<10+512])
			}
			pass() // grow the scratch to its steady-state size
			pass()
			if avg := testing.AllocsPerRun(10, pass); avg != 0 {
				t.Fatalf("p=%d arm %s: MatchMask + Write allocate %.1f/op in steady state, want 0", threads, name, avg)
			}
		}
	}
}
