package sfa

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
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
				checkSegmentsAgree(t, what, rs, r, in, want[i])
			}
		}
	}
}

// checkSegmentsAgree streams in through rs cut in three segments, each
// on its own stream in writes of several size patterns (byte-sized ones
// over small inputs only), folds the streams out of order with Compose,
// and requires the fold's mask to be want.
func checkSegmentsAgree(t *testing.T, what string, rs *RuleSet, r *rand.Rand, in []byte, want []uint64) {
	t.Helper()
	got := make([]uint64, rs.MaskWords())
	for _, sizes := range [][]int{{200 << 10}, {64 << 10}, {4096, 100, 70000, 5000}, {1, 7, 3}} {
		if sizes[0] == 1 && len(in) > 8<<10 {
			continue
		}
		a, b := r.Intn(len(in)+1), r.Intn(len(in)+1)
		a, b = min(a, b), max(a, b)
		var segs [3]*RuleStream
		for k, seg := range [][]byte{in[:a], in[a:b], in[b:]} {
			st, err := rs.NewStream()
			if err != nil {
				t.Fatal(err)
			}
			segs[k] = st
			for j := 0; len(seg) > 0; j++ {
				w := min(sizes[j%len(sizes)], len(seg))
				st.Write(seg[:w])
				seg = seg[w:]
			}
		}
		if err := segs[1].Compose(segs[2]); err != nil {
			t.Fatal(err)
		}
		if err := segs[0].Compose(segs[1]); err != nil {
			t.Fatal(err)
		}
		if m := segs[0].Mask(got); !reflect.DeepEqual(m, want) {
			t.Fatalf("%s: streamed in %v, cut at %d and %d: %x, isolated %x", what, sizes, a, b, m, want)
		}
	}
}

// lazyWindowDefs is a rule set whose bounded-gap rules no eager shard
// can host under WithShardStateBudget(256): lazily compiled they land in
// lazy window shards, verified per rule. It carries the shapes that
// bookkeeping must get right — one literal opening windows of two rules,
// one rule with literals of two lengths — beside small rules that stay
// eager (window shards and a prefix shard), so one block verifies both
// kinds.
func lazyWindowDefs(n int) []RuleDef {
	return append(lazyGapDefs(n),
		RuleDef{Name: "shared-x", Pattern: `abcd.{0,8}x1`},
		RuleDef{Name: "shared-y", Pattern: `abcd.{0,5}y2`},
		RuleDef{Name: "two-lengths", Pattern: `kk.{0,6}(lmn|lmnop)`},
		RuleDef{Name: "lit", Pattern: `needle`},
		RuleDef{Name: "alt", Pattern: `(attack|exploit)-[0-9]{1,4}`},
		RuleDef{Name: "anchored", Pattern: `^q0[0-9]`},
	)
}

// TestLazyPerRuleVerificationAgrees is the public face of per-rule window
// verification (internal/multi has the randomized twin): a lazily compiled
// set whose lazy shards are windowed gives masks byte-identical to
// WithIsolatedRules and to its WithoutPrefilter twin — which walks the
// lazy tuple D-SFA over every byte — one-shot, block-parallel, streamed in
// any chunking and composed out of order, at 1, 2 and 4 threads, and never
// builds a combined automaton or charges the table budget doing it.
func TestLazyPerRuleVerificationAgrees(t *testing.T) {
	n, size := 40, 200<<10
	if raceEnabled {
		n, size = 24, 100<<10
	}
	defs := lazyWindowDefs(n)
	iso, err := NewRuleSetFromDefs(defs, WithSearch(), WithIsolatedRules(), WithEngine(EngineDFA))
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Join(lazyTrafficInputs(defs[:n], size/(1<<10), 1<<10, 5), []byte("needle abcdefy2 kk..lmnop\n"))
	// Occurrences across the 64 KiB edges of a one-shot scan's blocks.
	for e := 64 << 10; e < len(big); e += 64 << 10 {
		copy(big[e-7:], "q03efgefgz15 abcdx1")
	}
	inputs := [][]byte{big, big[:5000], big[66000:66400], []byte("q00abcdefghz00 kklmn abcdy2"), []byte("q0"), nil}
	want := make([][]uint64, len(inputs))
	for i, in := range inputs {
		want[i] = append([]uint64(nil), iso.MatchMask(in, make([]uint64, iso.MaskWords()))...)
	}
	if popcount(want[0][0]) < 8 || reflect.DeepEqual(want[0], want[2]) {
		t.Fatalf("fixture masks too plain: %x %x", want[0], want[2])
	}
	r := rand.New(rand.NewSource(31))
	for _, threads := range []int{1, 2, 4} {
		budget := NewTableBudget(0)
		opts := []Option{WithSearch(), WithThreads(threads), WithLazyCompile(), WithShardStateBudget(256), WithTableBudget(budget)}
		rs, err := NewRuleSetFromDefs(defs, opts...)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := NewRuleSetFromDefs(defs, append(opts, WithoutPrefilter())...)
		if err != nil {
			t.Fatal(err)
		}
		if pf := rs.PrefilterStats(); pf.WindowShards < 3 || pf.PrefixShards == 0 {
			t.Fatalf("p=%d: fixture planned %+v, want eager and lazy window shards and a prefix shard", threads, pf)
		}
		got := make([]uint64, rs.MaskWords())
		for i, in := range inputs {
			what := fmt.Sprintf("p=%d input %d (%d B)", threads, i, len(in))
			if m := twin.MatchMask(in, got); !reflect.DeepEqual(m, want[i]) {
				t.Fatalf("%s: WithoutPrefilter twin %x, isolated %x", what, m, want[i])
			}
			if m := rs.MatchMask(in, got); !reflect.DeepEqual(m, want[i]) {
				t.Fatalf("%s: MatchMask %x, isolated %x", what, m, want[i])
			}
			if names := rs.Scan(in, 0); !reflect.DeepEqual(names, rs.MaskNames(want[i])) {
				t.Fatalf("%s: Scan %v, isolated %v", what, names, rs.MaskNames(want[i]))
			}
			checkSegmentsAgree(t, what, rs, r, in, want[i])
		}
		checkLazyLayout(t, fmt.Sprintf("p=%d", threads), rs, false)
		if st := budget.Stats(); st.Fills == 0 {
			t.Fatalf("p=%d: the WithoutPrefilter twin filled nothing: %+v", threads, st)
		}
	}
}

// TestLazyHotPathsZeroAlloc: steady-state MatchMask and RuleStream.Write
// over a lazily compiled set allocate nothing — behind the prefilter,
// where lazy shards are verified per rule, and without it, where the
// tuple D-SFA walks every byte and has stopped filling. Each pass resets
// the stream, so the rules it settled take windows again.
func TestLazyHotPathsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	defs := lazyWindowDefs(24)
	data := bytes.Join(lazyTrafficInputs(defs[:24], 128, 1<<10, 3), []byte("needle abcdefy2\n"))
	for _, leg := range lazyLegs {
		rs, err := NewRuleSetFromDefs(defs, append([]Option{WithSearch(), WithThreads(1), WithLazyCompile(),
			WithShardStateBudget(256), WithTableBudget(NewTableBudget(0))}, leg.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		st, err := rs.NewStream()
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]uint64, rs.MaskWords())
		pass := func() {
			rs.MatchMask(data, dst)
			st.Reset()
			st.Write(data[:64<<10])
			st.Write(data[64<<10 : 64<<10+512])
			st.Write(data[64<<10+512 : 64<<10+513])
		}
		pass() // fill what the traffic reaches, grow the scratch
		pass()
		if avg := testing.AllocsPerRun(10, pass); avg != 0 {
			t.Fatalf("%s: MatchMask + Write allocate %.1f/op in steady state, want 0", leg.name, avg)
		}
	}
}

// TestLazyRetainedWithinCharged is the lazy memory contract: what a
// lazily compiled set keeps on the heap is what it charged to the table
// budget, within a factor of two and a constant — the rule DFAs, the
// literal matcher and the pooled scratch are the constant; every table
// that grows with the traffic is charged, page directories included.
// Compiled without the prefilter so that the tuple D-SFA really runs;
// behind it the same rules retain under a megabyte and charge nothing.
func TestLazyRetainedWithinCharged(t *testing.T) {
	if raceEnabled {
		t.Skip("heap readings are not comparable under -race")
	}
	defs := lazyGapDefs(64)
	// Heads of every rule a few bytes apart, some closed by their tails:
	// the traffic that makes the combined automaton unroll its counters
	// against each other, thousands of tuple states per shard.
	r := rand.New(rand.NewSource(7))
	var data []byte
	for len(data) < 1<<20 {
		i := r.Intn(len(defs))
		data = fmt.Appendf(data, "q%02x%s", i, "abcdefghijklmnop"[:r.Intn(17)])
		if r.Intn(8) == 0 {
			data = fmt.Appendf(data, "z%02x", i*7%256)
		}
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, leg := range lazyLegs {
		budget := NewTableBudget(64 << 20)
		before := heap()
		rs, err := NewRuleSetFromDefs(defs, append([]Option{WithSearch(), WithThreads(1), WithSFACap(512),
			WithLazyCompile(), WithTableBudget(budget)}, leg.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]uint64, rs.MaskWords())
		rs.MatchMask(data, dst)
		retained := heap() - before
		used := budget.Stats().UsedBytes
		runtime.KeepAlive(rs)
		t.Logf("%s: retained %d used %d", leg.name, retained, used)
		if leg.combined && used < 1<<20 {
			t.Fatalf("%s: the scan charged only %d bytes; the contract was not exercised", leg.name, used)
		}
		if !leg.combined && used != 0 {
			t.Fatalf("%s: per-rule verification charged %d bytes", leg.name, used)
		}
		if limit := 2*used + 1<<20; retained > limit {
			t.Fatalf("%s: the set retains %d heap bytes for %d charged to the budget (limit %d)", leg.name, retained, used, limit)
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

// TestAnyAndMaskZeroAlloc gates the walks of a shard that go through a
// lock-step pass on a one-shard selection: RuleSet.Any over a set with
// window and prefix shards and over a whole-input set of gate shards,
// which it walks one at a time, and RuleStream.Mask, which walks a set's
// prefix shards over the stream's head, allocate nothing in steady
// state, at p = 1 and 2.
func TestAnyAndMaskZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	data, _ := textgen.Traffic{SuspiciousPerMille: 5}.Generate(256<<10, 3)
	gateDefs := []RuleDef{
		{Name: "gate", Pattern: `begin[0-9]{3,}end`},
		{Name: "admin", Pattern: `user=.*admin`},
		{Name: "tail", Pattern: `needle.*tail`},
	}
	for _, threads := range []int{1, 2} {
		win, err := NewRuleSetFromDefs(append(snortDefs(snort.ScanSample(8)), prefilterDefs()...),
			WithSearch(), WithThreads(threads), WithShardStateBudget(4096))
		if err != nil {
			t.Fatal(err)
		}
		gates, err := NewRuleSetFromDefs(gateDefs, WithSearch(), WithThreads(threads), WithShards(3))
		if err != nil {
			t.Fatal(err)
		}
		if pf := win.PrefilterStats(); pf.WindowShards == 0 || pf.PrefixShards == 0 {
			t.Fatalf("p=%d: the window set has no window or no prefix shard: %+v", threads, pf)
		}
		if pf := gates.PrefilterStats(); pf.GateShards != 3 || gates.Any(data) {
			t.Fatalf("p=%d: want three gate shards that all walk the input: %+v", threads, pf)
		}
		st, err := win.NewStream()
		if err != nil {
			t.Fatal(err)
		}
		st.Write(data[:4096])
		dst := make([]uint64, win.MaskWords())
		pass := func() {
			win.Any(data)
			gates.Any(data)
			st.Mask(dst)
		}
		pass()
		pass()
		if avg := testing.AllocsPerRun(10, pass); avg != 0 {
			t.Fatalf("p=%d: Any + Mask allocate %.1f/op in steady state, want 0", threads, avg)
		}
	}
}

// TestInstrumentedStreamZeroAlloc: a RuleStream.Write on a set compiled
// WithScanStats, followed by the per-request flight record the serve
// scan handler makes, allocates nothing in steady state — the
// observability layer's record path is as free as the walk it observes.
func TestInstrumentedStreamZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	stats := NewScanStats()
	rs, err := NewRuleSetFromDefs(snortDefs(snort.ScanSample(8)), WithSearch(), WithThreads(1), WithScanStats(stats))
	if err != nil {
		t.Fatal(err)
	}
	st, err := rs.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	ring := NewFlightRecorder(64)
	data, _ := textgen.Traffic{SuspiciousPerMille: 5}.Generate(64<<10, 3)
	dst := make([]uint64, rs.MaskWords())
	pass := func() {
		st.Write(data)
		st.Mask(dst)
		ss := st.Stats()
		ring.Record(ScanRecord{
			Tenant:      "t",
			Generation:  1,
			Bytes:       int64(len(data)),
			Chunks:      ss.Chunks,
			PrefilterNs: ss.PrefilterNs,
			ComposeNs:   ss.ComposeNs - ss.PrefilterNs,
		})
	}
	pass()
	pass()
	before := stats.Snapshot().Chunks
	if avg := testing.AllocsPerRun(20, pass); avg != 0 {
		t.Fatalf("instrumented Write + flight record allocate %.1f/op in steady state, want 0", avg)
	}
	if stats.Snapshot().Chunks == before {
		t.Fatal("scan stats recorded nothing: the instrumentation was not engaged")
	}
	if len(ring.Snapshot(4)) == 0 {
		t.Fatal("flight recorder recorded nothing")
	}
}
