package multi

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/prefilter"
	"repro/internal/syntax"
)

// armPool is the rule pool of the arm-schedule tests, under substring
// search: windowable rules (bounded, literal-covered), prefix rules
// (begin-anchored), gate rules (covered but unbounded) and one rule no
// literal covers, so that sets drawn from it plan into every shard mode.
var armPool = []string{
	`needle[0-9]{1,8}x`,
	`Host: [a-z0-9.-]{4,40}\r\n`,
	`(GET|POST) /[a-z]{1,12}\.php`,
	`SeCrEt`,
	`id=[0-9]{1,6}'`,
	`(cmd|command)\.exe`,
	`select [a-z]{1,10} from`,
	`X-Fwd: [0-9.]{7,15};`,
	`^HDR/[0-9]{2}`,
	`^GET /index`,
	`begin[0-9]+end`,
	`user=.*admin`,
	`[a-p]{10}`,
}

// armSet is one compiled rule set with the per-rule reference DFAs the
// isolated engines would run.
type armSet struct {
	set    *Set
	nodes  []*syntax.Node // bracketed, as compiled
	oracle []*dfa.DFA
}

func (a *armSet) want(in []byte) []uint64 {
	m := make([]uint64, a.set.Words())
	for r, d := range a.oracle {
		if d.Accepts(in) {
			m[r>>6] |= 1 << (r & 63)
		}
	}
	return m
}

// compileArmSet compiles patterns as sfa.NewRuleSetFromDefs(WithSearch())
// does: literals extracted from the rule as written, then bracketed.
func compileArmSet(t testing.TB, patterns []string, o Options) *armSet {
	t.Helper()
	a := &armSet{}
	nodes, rules := armRules(t, patterns)
	o.Prefilter = rules
	for _, n := range nodes {
		d, err := dfa.Compile(n, 0)
		if err != nil {
			t.Fatal(err)
		}
		a.oracle = append(a.oracle, d)
	}
	s, err := Compile(nodes, o)
	if err != nil {
		t.Fatal(err)
	}
	a.set, a.nodes = s, nodes
	return a
}

// armRules parses patterns as compileArmSet compiles them: the nodes
// bracketed for search, and the prefilter rules of each as written.
func armRules(t testing.TB, patterns []string) ([]*syntax.Node, []prefilter.Rule) {
	t.Helper()
	nodes := make([]*syntax.Node, len(patterns))
	rules := make([]prefilter.Rule, len(patterns))
	for i, p := range patterns {
		n, err := syntax.Parse(p, syntax.DotAll)
		if err != nil {
			t.Fatal(err)
		}
		rules[i] = prefilter.Extract(n, true)
		nodes[i] = syntax.BracketForSearch(n)
	}
	return nodes, rules
}

// armTraffic is HTTP-like filler with occurrences of the pool's rules
// planted at random and — the case the block driver must get right —
// across every edge multiples of edge bytes into the input.
func armTraffic(r *rand.Rand, size, edge int) []byte {
	plants := []string{
		"needle12345x", "Host: a-b.example.com\r\n", "GET /search.php", "SeCrEt",
		"id=4711'", "command.exe", "select name from", "X-Fwd: 10.0.0.1;",
		"begin123end", "user=root admin", "abcdefghij", "needle1", "Host: x", "SeCr",
	}
	filler := []string{"GET /img/logo.png HTTP/1.1\n", "User-Agent: curl/8.1\n", "QUJDREVGR0g=\n", "zzzzzzzzzzzzzzzz\n", "Hos", "nee"}
	out := make([]byte, 0, size+64)
	if r.Intn(2) == 0 {
		out = append(out, "HDR/42 "...)
	}
	for len(out) < size {
		if r.Intn(12) == 0 {
			out = append(out, plants[r.Intn(len(plants))]...)
		} else {
			out = append(out, filler[r.Intn(len(filler))]...)
		}
	}
	out = out[:size]
	for e := edge; e < size; e += edge {
		p := plants[r.Intn(len(plants))]
		at := e - r.Intn(len(p)+1)
		if r.Intn(3) > 0 && at >= 0 && at+len(p) <= size {
			copy(out[at:], p)
		}
	}
	return out
}

// armSchedules are the arm schedules of the differential tests; nil is
// the measured choice.
var armSchedules = map[string]func(int64) bool{
	"measured":    nil,
	"cascade":     func(int64) bool { return false },
	"whole":       func(int64) bool { return true },
	"alternating": func(b int64) bool { return b&1 == 1 },
	"random":      func(b int64) bool { return (uint64(b)*0x9e3779b97f4a7c15)>>63 == 1 },
}

// streamIn writes in to st in chunks of the given sizes, cycled.
func streamIn(st *SetStream, in []byte, sizes []int) {
	for i := 0; len(in) > 0; i++ {
		n := min(sizes[i%len(sizes)], len(in))
		st.Write(in[:n])
		in = in[n:]
	}
}

// composeTree scans the cuts of in on their own streams and folds them
// by a random binary tree of Compose calls.
func composeTree(s *Set, r *rand.Rand, in []byte, cuts []int, sizes []int) *SetStream {
	if len(cuts) == 0 {
		st := s.NewStream()
		streamIn(st, in, sizes)
		return st
	}
	k := r.Intn(len(cuts))
	left := composeTree(s, r, in[:cuts[k]], cuts[:k], sizes)
	rest := make([]int, 0, len(cuts)-k-1)
	for _, c := range cuts[k+1:] {
		rest = append(rest, c-cuts[k])
	}
	right := composeTree(s, r, in[cuts[k]:], rest, sizes)
	if err := left.Compose(right); err != nil {
		panic(err)
	}
	return left
}

// checkEveryPath requires mask want of in from every way s can scan it:
// one-shot in order and block-parallel, streamed in chunkings from 1 B
// (small inputs only) to 200 KiB, and cut at random points into segments
// scanned on their own streams and folded by a random Compose tree.
func checkEveryPath(t *testing.T, what string, s *Set, r *rand.Rand, in []byte, want []uint64) {
	t.Helper()
	got := make([]uint64, s.Words())
	for _, workers := range []int{1, 0} {
		if m := s.Scan(in, workers, got); !slices.Equal(m, want) {
			t.Fatalf("%s: Scan(workers=%d) %x, want %x", what, workers, m, want)
		}
	}
	chunkings := [][]int{{200 << 10}, {64 << 10}, {4096, 5000, 100, 70000}, {1 << 10, 37, 4095}}
	if len(in) < 8<<10 {
		chunkings = append(chunkings[2:], []int{1}, []int{2, 3, 1}, []int{7}, []int{13, 40, 5})
	}
	for _, sizes := range chunkings {
		st := s.NewStream()
		streamIn(st, in, sizes)
		if m := st.Mask(got); !slices.Equal(m, want) {
			t.Fatalf("%s: streamed in %v: %x, want %x", what, sizes, m, want)
		}
		if len(in) == 0 {
			continue
		}
		var cuts []int
		for c := 0; c < 1+r.Intn(4); c++ {
			cuts = append(cuts, r.Intn(len(in)+1))
		}
		slices.Sort(cuts)
		if m := composeTree(s, r, in, cuts, sizes).Mask(got); !slices.Equal(m, want) {
			t.Fatalf("%s: composed at %v in %v: %x, want %x", what, cuts, sizes, m, want)
		}
	}
}

// TestArmScheduleVerdictInvariance is the block driver's contract: for
// random rule sets, inputs with occurrences across block edges,
// chunkings from 1 B to 200 KiB, Compose trees, every arm schedule,
// sequential and block-parallel one-shot scans, at 1, 2 and 4 threads,
// every mask equals the per-rule reference DFAs' verdicts.
func TestArmScheduleVerdictInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	nsets, large := 4, 300<<10
	if raceEnabled {
		nsets, large = 2, 140<<10
	}
	windowShards := 0
	for si := 0; si < nsets; si++ {
		patterns := slices.Clone(armPool)
		r.Shuffle(len(patterns), func(i, j int) { patterns[i], patterns[j] = patterns[j], patterns[i] })
		patterns = patterns[:6+r.Intn(len(patterns)-5)]
		inputs := [][]byte{
			armTraffic(r, large, scanBlock),
			armTraffic(r, 3000+r.Intn(3000), 512),
			[]byte("needle1"), nil,
		}
		for _, threads := range []int{1, 2, 4} {
			// A small shard budget splits the windowable rules over
			// several window shards, the case lock-step walks.
			a := compileArmSet(t, patterns, Options{Threads: threads, SFABudget: 600})
			for _, sh := range a.set.Shards() {
				if sh.Prefilter == "window" {
					windowShards++
				}
			}
			for name, sched := range armSchedules {
				a.set.ForceArm(sched)
				for ii, in := range inputs {
					want := a.want(in)
					what := fmt.Sprintf("set %d %v p=%d schedule %s input %d (%d B)", si, patterns, threads, name, ii, len(in))
					checkEveryPath(t, what, a.set, r, in, want)
				}
			}
		}
	}
	if windowShards == 0 {
		t.Fatal("no drawn set planned a window shard; the arms were never exercised")
	}
}

// TestArmsConcurrentStreams shares one set — and so its arm costs —
// between goroutines streaming and scanning at once, on the measured
// choice and on a forced mix. Run under -race.
func TestArmsConcurrentStreams(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	in := armTraffic(r, 200<<10, scanBlock)
	for _, sched := range []string{"measured", "random"} {
		a := compileArmSet(t, armPool, Options{Threads: 2, SFABudget: 600})
		a.set.ForceArm(armSchedules[sched])
		streamAndScanConcurrently(t, sched, a, in)
	}
}

// streamAndScanConcurrently has eight goroutines stream in through a's
// set in their own chunkings (down to a few bytes a write) and scan it
// one-shot, three rounds each, all against the reference verdict.
func streamAndScanConcurrently(t *testing.T, what string, a *armSet, in []byte) {
	t.Helper()
	want := a.want(in)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := make([]uint64, a.set.Words())
			for round := 0; round < 3; round++ {
				st := a.set.NewStream()
				streamIn(st, in, []int{4096 + g*1000, 64 << 10, 100, 1 + g})
				if m := st.Mask(got); !slices.Equal(m, want) {
					errs <- fmt.Errorf("%s: goroutine %d stream %x, want %x", what, g, m, want)
					return
				}
				if m := a.set.Scan(in, g%2, got); !slices.Equal(m, want) {
					errs <- fmt.Errorf("%s: goroutine %d scan %x, want %x", what, g, m, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestArmCostsSchedule drives the arm choice with synthetic costs: each
// arm is tried once, the cheaper one then runs, the loser is sampled at
// doubling distances (under 1 % of a long stationary input), a change
// of winner restarts the sampling, and blocks under armMinBytes follow
// the current arm without sampling or being recorded.
func TestArmCostsSchedule(t *testing.T) {
	p := &setPre{win: []int{0, 1}}
	// One 64 KiB block at 6, 0.8 and 2.4 ns/B.
	const blk, dense, sparse, lock = 64 << 10, 390_000, 52_000, 157_000
	step := func(cascadeNs, wholeNs int64) bool {
		whole := p.pick(blk, nil)
		ns := cascadeNs
		if whole {
			ns = wholeNs
		}
		p.arms.record(whole, blk, ns)
		return whole
	}
	if step(dense, lock) || !step(dense, lock) {
		t.Fatal("a fresh set must try the cascade, then the whole arm")
	}
	blocks, samples := (1<<30)/blk, 0
	for i := 0; i < blocks; i++ {
		if !step(dense, lock) {
			samples++
		}
	}
	if samples == 0 || samples*100 > blocks {
		t.Fatalf("the losing arm ran %d of %d blocks, want some but at most 1 %%", samples, blocks)
	}
	if gap := p.arms.probeGap.Load(); gap != probeGapMax {
		t.Fatalf("sampling distance %d on stationary input, want the cap %d", gap, probeGapMax)
	}
	// Small blocks follow the arm and leave no trace.
	before := [2]int64{p.arms.cost[0].Load(), p.arms.cost[1].Load()}
	left := p.arms.probeIn.Load()
	for i := 0; i < 1000; i++ {
		if !p.pick(armMinBytes-1, nil) {
			t.Fatal("a small block left the winning arm")
		}
	}
	if p.arms.probeIn.Load() != left || before != [2]int64{p.arms.cost[0].Load(), p.arms.cost[1].Load()} {
		t.Fatal("small blocks moved the sampling schedule or the costs")
	}
	// The traffic turns sparse: the cascade gets cheap. The next sample
	// (at most one capped gap away) sees it and calls for another one
	// soon, which changes the winner; sampling restarts short.
	sampled := 0
	for i := 0; i < 2*probeGapMax/blk && sampled == 0; i++ {
		if !step(sparse, lock) {
			sampled = i + 1
		}
	}
	for i := 0; i < 2*probeGapMin/blk; i++ {
		step(sparse, lock)
	}
	if sampled == 0 || p.arms.wholeWins() {
		t.Fatalf("the cascade became 7x cheaper and the choice did not follow (first sampled after %d blocks)", sampled)
	}
	if gap := p.arms.probeGap.Load(); gap > 4*probeGapMin {
		t.Fatalf("sampling distance %d after a change of winner, want a restart near %d", gap, probeGapMin)
	}
	// A closed gate, a lazy window shard, or no window shard at all keep
	// the block on the cascade.
	p.gates = []int{2}
	for i := 0; i < 64 && !p.arms.wholeWins(); i++ {
		step(dense, lock) // dense again: the cascade's own blocks show it
	}
	if !p.arms.wholeWins() {
		t.Fatal("the cascade became 7x dearer and the choice did not follow within 64 blocks")
	}
	if p.pick(blk, []bool{false, false, false}) || !p.pick(blk, []bool{false, false, true}) {
		t.Fatal("a closed gate must hold the block on the cascade, an open one must not")
	}
	p.lazyWin = true
	if p.pick(blk, nil) {
		t.Fatal("a lazy window shard must hold the block on the cascade")
	}
}

// TestSmallWritesNeverSwitchArm: a set that only ever sees writes under
// armMinBytes stays on the cascade, unmeasured, whatever the traffic.
func TestSmallWritesNeverSwitchArm(t *testing.T) {
	a := compileArmSet(t, armPool[:8], Options{Threads: 1, SFABudget: 600})
	in := bytes.Repeat([]byte("GET /a.php Host: needle SeCr id=1 select x\n"), 200)
	st := a.set.NewStream()
	for i := 0; i < 50; i++ {
		streamIn(st, in, []int{512, armMinBytes - 1})
		a.set.Scan(in[:armMinBytes-1], 1, make([]uint64, a.set.Words()))
	}
	pf := a.set.PrefilterStats()
	if pf.BypassedBlocks != 0 || pf.CascadeNsPerKiB != 0 || pf.WholeNsPerKiB != 0 {
		t.Fatalf("small writes measured or bypassed: %+v", pf)
	}
}

// TestWindowShardAttribution: a stream write that walks window shards
// leaves compose time on each of them — on the cascade arm, split by
// the bytes each walked, and on the whole arm, evenly. And every kind of
// shard keeps an account although no engine books its own: after a Scan,
// and after stream Writes and a Mask, each shard of a set that walked
// anything has time, bytes, and chunks (carried and prefix shards) or
// candidate windows (window shards) — lock-step u16 shards, a lone u16
// shard, u8 shards, prefix shards, eager and lazy window shards, and a
// lazy gate shard.
func TestWindowShardAttribution(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	in := armTraffic(r, 128<<10, scanBlock)
	for _, whole := range []bool{false, true} {
		a := compileArmSet(t, armPool[:8], Options{Threads: 1, SFABudget: 600})
		a.set.ForceArm(func(int64) bool { return whole })
		st := a.set.NewStream()
		streamIn(st, in, []int{64 << 10})
		windows := 0
		for i, sh := range a.set.Shards() {
			if sh.Prefilter != "window" {
				continue
			}
			windows++
			if sh.CandWindows == 0 || sh.ScanBytes == 0 {
				t.Fatalf("whole=%v: window shard %d walked nothing: %+v", whole, i, sh)
			}
			if sh.ComposeNs <= 0 {
				t.Fatalf("whole=%v: window shard %d walked %d bytes in %d windows and booked no time", whole, i, sh.ScanBytes, sh.CandWindows)
			}
			if sh.ScanChunks != 0 {
				t.Fatalf("whole=%v: window shard %d counts %d carried-mapping chunks", whole, i, sh.ScanChunks)
			}
		}
		if windows < 2 {
			t.Fatalf("fixture planned %d window shards, want several", windows)
		}
		if ss := st.Stats(); ss.PrefilterNs <= 0 || ss.PrefilterNs > ss.ComposeNs {
			t.Fatalf("whole=%v: stream stats %+v", whole, ss)
		}
	}

	gaps := append(gapSet(r, 6), `abcd.{0,8}x1.*zz`, `SeCrEt`)
	fixtures := []struct {
		name    string
		compile func() *Set
		in      []byte
	}{
		// Window, prefix, gate (the lone u16 shard of its walk) and full (u8).
		{"prefiltered", func() *Set { return compileArmSet(t, armPool, Options{Threads: 1}).set }, in},
		// Every shard carried: the u16 shards walk lock-step.
		{"unfiltered", func() *Set {
			a := compileArmSet(t, armPool, Options{Threads: 1})
			s, err := Compile(a.nodes, Options{Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, in},
		// A lazy window shard verified per rule, a lazy gate shard, an
		// eager u8 window shard.
		{"lazy", func() *Set { return compileArmSet(t, gaps, gapOptions(1)).set }, gapTraffic(r, gaps, 128<<10, scanBlock)},
	}
	kinds := map[string]bool{}
	for _, f := range fixtures {
		for _, via := range []string{"Scan", "stream"} {
			s := f.compile()
			if via == "Scan" {
				s.Scan(f.in, 1, make([]uint64, s.Words()))
			} else {
				st := s.NewStream()
				streamIn(st, f.in, []int{64 << 10})
				st.Mask(make([]uint64, s.Words()))
			}
			carriedU16 := 0
			for _, sh := range s.Shards() {
				if sh.Layout == "u16" && (sh.Prefilter == "off" || sh.Prefilter == "gate" || sh.Prefilter == "full") {
					carriedU16++
				}
			}
			for i, sh := range s.Shards() {
				kind := sh.Prefilter + "/" + sh.Layout
				switch {
				case sh.Layout == "u16" && sh.Prefilter != "window" && carriedU16 > 1:
					kind = "lock-step u16"
				case sh.Layout == "u16" && sh.Prefilter != "window":
					kind = "lone u16"
				}
				kinds[kind] = true
				what := fmt.Sprintf("%s via %s: %s shard %d", f.name, via, kind, i)
				if sh.ComposeNs <= 0 || sh.ScanBytes <= 0 {
					t.Fatalf("%s booked no walk: %+v", what, sh)
				}
				if window := sh.Prefilter == "window"; window && (sh.CandWindows == 0 || sh.ScanChunks != 0) ||
					!window && (sh.ScanChunks == 0 || sh.CandWindows != 0) {
					t.Fatalf("%s: chunks %d, windows %d", what, sh.ScanChunks, sh.CandWindows)
				}
			}
		}
	}
	for _, k := range []string{"lock-step u16", "lone u16", "full/u8", "prefix/u8", "window/u16", "window/u8", "window/lazy-rules", "gate/lazy"} {
		if !kinds[k] {
			t.Errorf("no fixture has a %s shard (have %v)", k, kinds)
		}
	}
}

// gapSet draws a bounded-gap rule set the eager planner cannot afford
// under gapOptions, so its rules land in lazy window shards and are
// verified per rule: n random rules, plus the shapes the per-rule
// bookkeeping has to get right — two rules opened by the same literal,
// and a rule whose literals differ in length (so its windows do not
// arrive in position order).
func gapSet(r *rand.Rand, n int) []string {
	pats := []string{
		`abcd.{0,8}x1`, `abcd.{0,5}y2`,
		`kk.{0,6}(lmn|lmnop)`,
	}
	for i := 0; i < n; i++ {
		pats = append(pats, fmt.Sprintf("h%02d.{0,%d}t%02d", i, 3+r.Intn(14), (i*7)%100))
	}
	return pats
}

// gapOptions sends every gap rule to a lazy shard (no capped D-SFA of
// one fits 256 states) and leaves small literal rules eager.
func gapOptions(threads int) Options {
	return Options{Lazy: true, SFABudget: 256, Budget: core.NewTableBudget(0), Threads: threads}
}

// gapTraffic is lower-case filler with heads and tails of the set's
// rules planted at gaps that sometimes fit and sometimes overshoot, and
// across every edge multiple of edge bytes.
func gapTraffic(r *rand.Rand, pats []string, size, edge int) []byte {
	const filler = "efgijopqrsuvwz \n"
	out := make([]byte, size)
	for i := range out {
		out[i] = filler[r.Intn(len(filler))]
	}
	plant := func(at int) {
		p := pats[r.Intn(len(pats))]
		var head, tail string
		switch {
		case p[0] == 'h':
			head, tail = p[:3], p[len(p)-3:]
		case p[0] == 'a':
			head, tail = "abcd", p[len(p)-2:]
		case p[0] == 'k':
			head, tail = "kk", []string{"lmn", "lmnop", "lm"}[r.Intn(3)]
		default:
			head = []string{"SeCrEt", "id=4711'", "SeCr", "needle12x"}[r.Intn(4)]
		}
		at = max(at, 0)
		at += copy(out[at:], head)
		if at += r.Intn(20); at < size {
			copy(out[at:], tail)
		}
	}
	for i := 0; i < size/60+1; i++ {
		plant(r.Intn(size))
	}
	for e := edge; e < size; e += edge {
		plant(e - r.Intn(24))
	}
	return out
}

// everyRule is one complete occurrence of every rule of gapSet's shapes
// (and of the eager extras the mixed sets add), after a "h00 " that
// satisfies the prefix rule `^h0[0-9]`: a head that settles every rule at
// once.
func everyRule(pats []string) []byte {
	out := []byte("h00 ")
	for _, p := range pats {
		switch {
		case p[0] == 'h':
			out = append(out, p[:3]+p[len(p)-3:]...)
		case p[0] == 'a':
			out = append(out, "abcd"+p[len(p)-2:]...)
		case p[0] == 'k':
			out = append(out, "kklmn"...)
		case p == `SeCrEt`:
			out = append(out, p...)
		case p == `id=[0-9]{1,6}'`:
			out = append(out, "id=4711'"...)
		case p == `needle[0-9]{1,8}x`:
			out = append(out, "needle12x"...)
		}
		out = append(out, ' ')
	}
	return out
}

// ones counts the rules a mask reports.
func ones(m []uint64) int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// checkSettled fails unless every rule a per-rule shard of st has settled
// holds no open window: settled rules take no windows.
func checkSettled(t *testing.T, what string, st *SetStream) {
	t.Helper()
	for _, i := range st.set.pre.win {
		for r, o := range st.win.open[i] {
			if st.win.settled(int32(i), int32(r)) && o != (span{}) {
				t.Fatalf("%s: shard %d rule %d settled and still holds window %v", what, i, r, o)
			}
		}
	}
}

// lazyWindowShards counts a set's lazy window shards and fails unless
// each is still on the per-rule path: no combined automaton built, no
// budget byte charged.
func lazyWindowShards(t *testing.T, what string, s *Set) int {
	t.Helper()
	n := 0
	for i, sh := range s.Shards() {
		if !sh.Lazy || sh.Prefilter != "window" {
			continue
		}
		n++
		if sh.Layout != "lazy-rules" || sh.Fills != 0 || sh.ResidentBytes != 0 || sh.TableBytes != 0 {
			t.Fatalf("%s: lazy window shard %d left the per-rule path: %+v", what, i, sh)
		}
	}
	return n
}

// TestPerRuleVerificationInvariance is the differential test of per-rule
// window verification: random bounded-gap sets whose lazy window shards
// are verified one rule's DFA at a time, over chunkings from 1 B to
// 200 KiB, Compose trees, 1, 2 and 4 threads and sequential and
// block-parallel one-shot scans, give masks byte-identical to the
// per-rule reference DFAs and to the twin compiled without a prefilter
// (which walks the lazy tuple D-SFA) — without ever building a combined
// automaton.
func TestPerRuleVerificationInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	nsets, large := 3, 260<<10
	if raceEnabled {
		nsets, large = 2, 140<<10
	}
	for si := 0; si < nsets; si++ {
		patterns := gapSet(r, 4+r.Intn(30))
		if si > 0 {
			// A mixed set: eager window shards and a prefix shard beside the
			// lazy ones, so blocks verify both kinds.
			patterns = append(patterns, `SeCrEt`, `id=[0-9]{1,6}'`, `needle[0-9]{1,8}x`, `^h0[0-9]`)
		}
		head := everyRule(patterns)
		inputs := [][]byte{
			gapTraffic(r, patterns, large, scanBlock),
			// Every rule matches in the first block: the hits after it can
			// no longer change a verdict, and take no windows.
			append(slices.Clip(head), gapTraffic(r, patterns, large/2, scanBlock)...),
			gapTraffic(r, patterns, 2000+r.Intn(3000), 256),
			[]byte("xxabcdefgijopqy2x1"), []byte("h00"), nil,
		}
		for _, threads := range []int{1, 2, 4} {
			a := compileArmSet(t, patterns, gapOptions(threads))
			what := fmt.Sprintf("set %d p=%d", si, threads)
			if m := a.want(head); ones(m) != len(patterns) {
				t.Fatalf("%s: the head matches %x, not every rule", what, m)
			}
			// Compose splits with every rule settled on the left only, on the
			// right only, and on neither side, each followed by more input.
			small := inputs[2]
			for k, parts := range [][3][]byte{{head, small, small}, {small, head, small}, {small, small, head}, {small, small, small}} {
				left, right := a.set.NewStream(), a.set.NewStream()
				streamIn(left, parts[0], []int{7, 300})
				streamIn(right, parts[1], []int{300, 7})
				if err := left.Compose(right); err != nil {
					t.Fatal(err)
				}
				checkSettled(t, what, left)
				streamIn(left, parts[2], []int{64})
				in := slices.Concat(parts[0], parts[1], parts[2])
				if m, want := left.Mask(make([]uint64, a.set.Words())), a.want(in); !slices.Equal(m, want) {
					t.Fatalf("%s: compose split %d: mask %x, want %x", what, k, m, want)
				}
			}
			lazyWin := lazyWindowShards(t, what, a.set)
			if lazyWin == 0 {
				t.Fatalf("%s: no lazy window shard planned: %+v", what, a.set.Shards())
			}
			if pf := a.set.PrefilterStats(); si > 0 && (pf.PrefixShards == 0 || pf.WindowShards == lazyWin) {
				t.Fatalf("%s: the mixed set has no eager window or no prefix shard: %+v", what, pf)
			}
			o := gapOptions(threads)
			twin, err := Compile(a.nodes, o)
			if err != nil {
				t.Fatal(err)
			}
			tw := make([]uint64, twin.Words())
			for ii, in := range inputs {
				want := a.want(in)
				what := fmt.Sprintf("%s input %d (%d B)", what, ii, len(in))
				if m := twin.Scan(in, 1, tw); !slices.Equal(m, want) {
					t.Fatalf("%s: no-prefilter twin %x, want %x", what, m, want)
				}
				checkEveryPath(t, what, a.set, r, in, want)
			}
			lazyWindowShards(t, what+" after scanning", a.set)
			if twinBuilt := twin.Shards()[0]; twinBuilt.Layout != "lazy" || twinBuilt.Fills == 0 {
				t.Fatalf("%s: the no-prefilter twin never walked its tuple: %+v", what, twinBuilt)
			}
		}
	}
}

// TestPerRuleWindowsAcrossWrites pins the stream cases of per-rule
// verification one at a time: a literal cut by a Write boundary, a
// window that stays pending across three 1-byte Writes, writes shorter
// than any rule's MaxLen, one literal opening windows of two rules, a
// rule's windows arriving out of position order, and Mask read while a
// window is still open.
func TestPerRuleWindowsAcrossWrites(t *testing.T) {
	a := compileArmSet(t, gapSet(rand.New(rand.NewSource(1)), 4), gapOptions(1))
	if lazyWindowShards(t, "fixture", a.set) == 0 {
		t.Fatal("no lazy window shard planned")
	}
	shared, mixedLen := false, false
	for id, ts := range a.set.pre.targets {
		for _, x := range ts {
			for _, y := range ts {
				shared = shared || (x.shard == y.shard && x.rule >= 0 && y.rule >= 0 && x.rule != y.rule)
			}
			for id2, ts2 := range a.set.pre.targets {
				for _, y := range ts2 {
					l, l2 := a.set.pre.m.Lits()[id], a.set.pre.m.Lits()[id2]
					mixedLen = mixedLen || (x.shard == y.shard && x.rule >= 0 && x.rule == y.rule && len(l) != len(l2))
				}
			}
		}
	}
	if !shared || !mixedLen {
		t.Fatalf("fixture lost a shape: one literal for two rules %v, one rule with literals of two lengths %v", shared, mixedLen)
	}
	cases := []struct {
		name   string
		writes []string
	}{
		{"literal cut by a write", []string{"zzh0", "0gggt00zz"}},
		{"literal cut twice", []string{"zza", "b", "cdefy2"}},
		{"pending across three 1-byte writes", []string{"h00", "e", "f", "g", "t00"}},
		{"every write one byte", []string{"a", "b", "c", "d", "e", "f", "x", "1", "q", "y", "2"}},
		{"gap overshoots after pending", []string{"h00", "e", "f", "g", "eeeeeeeeeeeeeeeeeeeeeeeeeeeeee", "t00"}},
		{"one literal, two rules, one completes", []string{"abcdefgij", "y2"}},
		{"both rules of one literal", []string{"abcd", "ey2", "x1"}},
		{"short and long literal of one rule", []string{"kkeelmnop eee kk", "lm", "n"}},
		{"occurrence split at every byte of the tail", []string{"kkeel", "m", "n", "o", "p"}},
		{"second occurrence inside the first window", []string{"h00h00", "eeet0", "0"}},
		{"nothing to find", []string{"h00eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee", "t00"}},
		// Settled rules: matched in the first write, then hit again — a
		// window opened before the match, windows after it, and a seam on
		// either side of the match in the Compose splits below.
		{"settled in the first write, hit after", []string{"h00t00 h00e", "et00 h00", "t00"}},
		{"settled while a window is open", []string{"h00eh00t00", "e", "t00"}},
		{"settled on one side of every seam", []string{"abcdy2", "zzabcd", "eey2", "abcdx1 abcd", "x1"}},
	}
	got := make([]uint64, a.set.Words())
	for _, c := range cases {
		st := a.set.NewStream()
		var in []byte
		for _, wr := range c.writes {
			st.Write([]byte(wr))
			in = append(in, wr...)
			checkSettled(t, c.name, st)
			// Mask must be right at every point, open windows included.
			if m, want := st.Mask(got), a.want(in); !slices.Equal(m, want) {
				t.Fatalf("%s: after %q: mask %x, want %x", c.name, in, m, want)
			}
		}
		if m, want := a.set.Scan(in, 1, got), a.want(in); !slices.Equal(m, want) {
			t.Fatalf("%s: Scan(%q) %x, want %x", c.name, in, m, want)
		}
		// The same writes with a Compose in the middle: writes[:i] and
		// writes[i:j] on their own streams, folded, and the rest written to
		// the fold — which must have kept every window that still awaits
		// input: the left stream's, the right stream's, and those of
		// literals cut by the seam.
		for i := 0; i <= len(c.writes); i++ {
			for j := i; j <= len(c.writes); j++ {
				left, right := a.set.NewStream(), a.set.NewStream()
				for k, wr := range c.writes {
					switch {
					case k < i:
						left.Write([]byte(wr))
					case k < j:
						right.Write([]byte(wr))
					case k == j:
						if err := left.Compose(right); err != nil {
							t.Fatal(err)
						}
						checkSettled(t, c.name, left)
						fallthrough
					default:
						left.Write([]byte(wr))
					}
				}
				if j == len(c.writes) {
					if err := left.Compose(right); err != nil {
						t.Fatal(err)
					}
					checkSettled(t, c.name, left)
				}
				if m, want := left.Mask(got), a.want(in); !slices.Equal(m, want) {
					t.Fatalf("%s: composed writes[:%d] · writes[%d:%d], then the rest: mask %x, want %x", c.name, i, i, j, m, want)
				}
			}
		}
		// Reset forgets every window and every settled rule: the stream
		// reused for the same writes must find the same matches again.
		st.Reset()
		st.Write([]byte("zz"))
		if m := st.Mask(got); !slices.Equal(m, a.want([]byte("zz"))) {
			t.Fatalf("%s: a window or a settled rule survived Reset: mask %x", c.name, m)
		}
		st.Reset()
		for _, wr := range c.writes {
			st.Write([]byte(wr))
		}
		if m, want := st.Mask(got), a.want(in); !slices.Equal(m, want) {
			t.Fatalf("%s: reused after Reset: mask %x, want %x", c.name, m, want)
		}
	}
	if a.want([]byte("abcdey2x1"))[0] == 0 {
		t.Fatal("fixture inputs match nothing")
	}
}

// TestPerRuleConcurrentStreams shares one mixed set — eager window
// shards, lazy window shards verified per rule, a prefix shard — between
// goroutines streaming and scanning at once. Run under -race.
func TestPerRuleConcurrentStreams(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	patterns := append(gapSet(r, 20), `SeCrEt`, `id=[0-9]{1,6}'`, `needle[0-9]{1,8}x`, `^h0[0-9]`)
	a := compileArmSet(t, patterns, gapOptions(2))
	if pf, lazyWin := a.set.PrefilterStats(), lazyWindowShards(t, "fixture", a.set); lazyWin == 0 || pf.WindowShards == lazyWin || pf.PrefixShards == 0 {
		t.Fatalf("fixture is not mixed: %+v", pf)
	}
	streamAndScanConcurrently(t, "mixed set", a, gapTraffic(r, patterns, 150<<10, scanBlock))
	lazyWindowShards(t, "after concurrent use", a.set)
}

// TestPerRuleZeroAllocAndCounters: steady-state Scan and Write over lazy
// window shards allocate nothing, and the counters count per-rule
// windows — candidate bytes and shard scan bytes agree, a window per
// verified rule.
func TestPerRuleZeroAllocAndCounters(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	patterns := gapSet(r, 40)
	a := compileArmSet(t, patterns, gapOptions(1))
	in := gapTraffic(r, patterns, 256<<10, scanBlock)
	dst := make([]uint64, a.set.Words())
	st := a.set.NewStream()
	pass := func() {
		a.set.Scan(in, 1, dst)
		st.Write(in[:64<<10])
		st.Write(in[64<<10 : 64<<10+300])
		st.Write(in[64<<10+300 : 64<<10+301])
	}
	pass()
	pass()
	if !raceEnabled {
		if avg := testing.AllocsPerRun(10, pass); avg != 0 {
			t.Fatalf("Scan + Write over lazy window shards allocate %.1f/op in steady state, want 0", avg)
		}
	}
	pf := a.set.PrefilterStats()
	var bytes, windows int64
	for _, sh := range a.set.Shards() {
		if sh.Lazy {
			bytes += sh.ScanBytes
			windows += sh.CandWindows
			if sh.ComposeNs <= 0 || sh.ScanChunks != 0 {
				t.Fatalf("lazy window shard account: %+v", sh)
			}
		}
	}
	if bytes == 0 || bytes != pf.CandidateBytes || windows == 0 {
		t.Fatalf("shards verified %d bytes in %d windows, the prefilter counts %d candidate bytes", bytes, windows, pf.CandidateBytes)
	}
	if pf.BypassedBlocks != 0 {
		t.Fatalf("a set with lazy window shards took the whole arm: %+v", pf)
	}
	lazyWindowShards(t, "after the passes", a.set)
}

// headsOnly is n hits of the literals of gapSet's rules, none of them
// completed, in filler no tail can come from: every hit opens a window
// and no window matches.
func headsOnly(r *rand.Rand, pats []string, n int) []byte {
	var out []byte
	for i := 0; i < n; i++ {
		p := pats[r.Intn(len(pats))]
		switch p[0] {
		case 'h':
			out = append(out, p[:3]...)
		case 'a':
			out = append(out, "abcd"...)
		case 'k':
			out = append(out, "lmn"...) // its literals are the tails
		}
		out = append(out, " efg efg efg efg efg efg efg efg\n"...)
	}
	return out
}

// TestSettledRulesTakeNoWindows: once a rule verified per rule has
// matched, its later hits are not walked — in one-shot scans and in
// streams, until Reset — and the verdicts stay the reference DFAs'.
func TestSettledRulesTakeNoWindows(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	patterns := gapSet(r, 20)
	a := compileArmSet(t, patterns, gapOptions(1))
	if lazyWindowShards(t, "fixture", a.set) == 0 {
		t.Fatal("no lazy window shard planned")
	}
	hits := headsOnly(r, patterns, 2000)
	early := append(everyRule(patterns), hits...)
	if ones(a.want(hits)) != 0 || ones(a.want(early)) != len(patterns) {
		t.Fatalf("fixture: the hits match %x, the early input %x", a.want(hits), a.want(early))
	}
	windows := func() (n int64) {
		for _, sh := range a.set.Shards() {
			if sh.Lazy {
				n += sh.CandWindows
			}
		}
		return n
	}
	dst := make([]uint64, a.set.Words())
	scan := func(in []byte) int64 {
		before := windows()
		if m, want := a.set.Scan(in, 1, dst), a.want(in); !slices.Equal(m, want) {
			t.Fatalf("Scan: mask %x, want %x", m, want)
		}
		return windows() - before
	}
	open, settled := scan(hits), scan(early)
	if open < 1000 || settled > 2*int64(len(patterns)) {
		t.Fatalf("one-shot: %d windows over the hits alone, %d with every rule settled first; want ≥ 1000 and ≤ 2 per rule", open, settled)
	}
	if again := scan(hits); again != open {
		t.Fatalf("a scan after the settled one verified %d windows, want %d: settled rules leaked through the scan context", again, open)
	}
	st := a.set.NewStream()
	got := make([]uint64, a.set.Words())
	for _, reset := range []bool{false, true} {
		st.Write(everyRule(patterns))
		before := windows()
		streamIn(st, hits, []int{4096, 100, 1})
		if n := windows() - before; n != 0 {
			t.Fatalf("reset=%v: %d windows verified after every rule settled, want 0", reset, n)
		}
		if m, want := st.Mask(got), a.want(early); ones(m) != len(patterns) || !slices.Equal(m, want) {
			t.Fatalf("reset=%v: stream mask %x, want %x", reset, m, want)
		}
		// Folding in a stream of unsettled hits walks no junction and keeps
		// no window either.
		right := a.set.NewStream()
		streamIn(right, hits[:500], []int{64})
		before = windows()
		if err := st.Compose(right); err != nil {
			t.Fatal(err)
		}
		checkSettled(t, "composed", st)
		if n := windows() - before; n != 0 {
			t.Fatalf("reset=%v: Compose verified %d junction windows of settled rules, want 0", reset, n)
		}
		st.Reset()
		before = windows()
		streamIn(st, hits, []int{4096})
		if n := windows() - before; n < 1000 {
			t.Fatalf("reset=%v: %d windows verified after Reset, want ≥ 1000: settled rules survived Reset", reset, n)
		}
		if m := st.Mask(got); ones(m) != 0 {
			t.Fatalf("reset=%v: stream mask %x after Reset, want none", reset, m)
		}
		st.Reset()
	}
}

// TestWindowExtentsAtTheLiteral pins two head literals' windows end to
// end: a lone q00 hit of the lazy workload's q00.{0,8}z00 opens exactly
// [p, p+14), and a lone "Host: " hit of ids16's r009, in an eager window
// shard, opens 48 bytes (MaxLen's windows were 25 and 90 bytes).
func TestWindowExtentsAtTheLiteral(t *testing.T) {
	cases := []struct {
		name     string
		patterns []string
		o        Options
		lit      string
		lazy     bool
		back     int32
		fwd      int32
	}{
		{"gap head", []string{`q00.{0,8}z00`, `q01.{0,9}z07`, `q02.{0,10}z0e`}, gapOptions(1), "q00", true, 0, 14},
		{"ids16 r009", []string{`Host\x3a [a-z0-9\.-]{4,40}\x0d\x0a`, `SeCrEt`}, Options{Threads: 1}, "Host: ", false, 0, 48},
	}
	for _, c := range cases {
		a := compileArmSet(t, c.patterns, c.o)
		a.set.ForceArm(armSchedules["cascade"])
		p := a.set.pre
		id := slices.Index(p.m.Lits(), c.lit)
		if id < 0 || len(p.targets[id]) != 1 {
			t.Fatalf("%s: literal %q targets %v", c.name, c.lit, p.targets)
		}
		tg := p.targets[id][0]
		if tg.back != c.back || tg.fwd != c.fwd || (tg.rule >= 0) != c.lazy || a.set.Shards()[tg.shard].Prefilter != "window" {
			t.Fatalf("%s: target %+v, want a window shard with back %d, fwd %d (per rule: %v)", c.name, tg, c.back, c.fwd, c.lazy)
		}
		in := append(bytes.Repeat([]byte("z"), 100), c.lit...)
		in = append(in, bytes.Repeat([]byte("z"), 100)...)
		before := p.candBytes.Load()
		if m := a.set.Scan(in, 1, make([]uint64, a.set.Words())); ones(m) != 0 {
			t.Fatalf("%s: a lone hit matched %x", c.name, m)
		}
		if walked := p.candBytes.Load() - before; walked != int64(c.back+c.fwd) {
			t.Fatalf("%s: a lone hit walked %d bytes, want %d", c.name, walked, c.back+c.fwd)
		}
	}
}

// armOccurrences are occurrences of the first eight armPool rules, the
// windowable ones, by rule index.
var armOccurrences = []string{
	"needle12345x", "Host: a-b.example.com\r\n", "GET /search.php", "SeCrEt",
	"id=4711'", "command.exe", "select name from", "X-Fwd: 10.0.0.1;",
}

// settleTraffic is size bytes of filler that begins with an occurrence
// of every armPool rule in head and carries occurrences of the rules in
// plant at random and across every scanBlock edge.
func settleTraffic(r *rand.Rand, size int, head, plant []int) []byte {
	var out []byte
	for _, ri := range head {
		out = append(out, armOccurrences[ri]+" "...)
	}
	filler := []string{"GET /img/logo.png HTTP/1.1\n", "User-Agent: curl/8.1\n", "QUJDREVGR0g=\n", "zzzzzzzzzzzzzzzz\n", "Hos", "nee"}
	for len(out) < size {
		if len(plant) > 0 && r.Intn(40) == 0 {
			out = append(out, armOccurrences[plant[r.Intn(len(plant))]]...)
		} else {
			out = append(out, filler[r.Intn(len(filler))]...)
		}
	}
	out = out[:size]
	for e := scanBlock; len(plant) > 0 && e < size; e += scanBlock {
		p := armOccurrences[plant[r.Intn(len(plant))]]
		if at := e - r.Intn(len(p)+1); at+len(p) <= size {
			copy(out[at:], p)
		}
	}
	return out
}

// TestSettledShardLeavesTheWalk: a window shard verified whole whose
// rules have all matched in a scan or stream takes no further walk —
// on either arm, in one-shot scans and stream writes and at a Compose
// junction, until Reset — and every verdict stays the reference DFAs'.
// The fixture's shard of two rules settles in the first bytes, while
// shards whose rules never occur keep walking.
func TestSettledShardLeavesTheWalk(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for _, threads := range []int{1, 2} {
		a := compileArmSet(t, armPool, Options{Threads: threads, SFABudget: 600})
		x, live := -1, -1
		for i, sh := range a.set.Shards() {
			switch {
			case sh.Prefilter != "window":
			case len(sh.Rules) > 1:
				x = i
			case sh.Rules[0] == 1: // Host, never planted
				live = i
			}
		}
		if x < 0 || live < 0 {
			t.Fatalf("p=%d: no window shard of two rules, or none for Host: %+v", threads, a.set.Shards())
		}
		rules := a.set.Shards()[x].Rules
		in := settleTraffic(r, 300<<10, rules, []int{0, 2, rules[0]})
		// After a Reset the shard's rules occur only at the very end.
		late := settleTraffic(r, 200<<10, nil, []int{0})
		for _, ri := range rules {
			late = append(late, armOccurrences[ri]...)
		}
		walked := func(i int) int64 { return a.set.Shards()[i].ScanBytes }
		got := make([]uint64, a.set.Words())
		for _, sched := range []string{"cascade", "whole", "alternating"} {
			a.set.ForceArm(armSchedules[sched])
			what := fmt.Sprintf("p=%d %s", threads, sched)
			checkEveryPath(t, what, a.set, r, in, a.want(in))
			// In a one-shot scan at p = 1 (64 KiB blocks) and in a stream of
			// 64 KiB writes the shard walks the first block and nothing after.
			bound := int64(scanBlock + a.set.pre.maxSpan)
			if threads == 1 {
				before := walked(x)
				if m := a.set.Scan(in, 1, got); !slices.Equal(m, a.want(in)) {
					t.Fatalf("%s: Scan %x, want %x", what, m, a.want(in))
				}
				if n := walked(x) - before; n == 0 || n > bound {
					t.Fatalf("%s: the settled shard walked %d bytes of a %d-byte scan, want 1…%d", what, n, len(in), bound)
				}
			}
			var sts [2]*SetStream
			for k := range sts {
				before := walked(x)
				sts[k] = a.set.NewStream()
				streamIn(sts[k], in, []int{64 << 10})
				if n := walked(x) - before; n == 0 || n > bound {
					t.Fatalf("%s: the settled shard walked %d bytes of a %d-byte stream, want 1…%d", what, n, len(in), bound)
				}
			}
			// The junction of two settled streams is walked by the live
			// shards only.
			x0, live0 := walked(x), walked(live)
			if err := sts[0].Compose(sts[1]); err != nil {
				t.Fatal(err)
			}
			if walked(x) != x0 || walked(live) == live0 {
				t.Fatalf("%s: Compose walked %d junction bytes on the settled shard, %d on a live one", what, walked(x)-x0, walked(live)-live0)
			}
			if m, want := sts[0].Mask(got), a.want(slices.Concat(in, in)); !slices.Equal(m, want) {
				t.Fatalf("%s: composed mask %x, want %x", what, m, want)
			}
			// Reset forgets the settled shard.
			st := sts[1]
			st.Reset()
			streamIn(st, late, []int{64 << 10})
			if m, want := st.Mask(got), a.want(late); !slices.Equal(m, want) || ones(want) < len(rules) {
				t.Fatalf("%s: after Reset, mask %x, want %x with the shard's rules", what, m, want)
			}
		}
	}
}

// TestAnyStopsAtTheFirstMatch: Any over input whose first block matches
// walks that block only — the matcher, the window shards and the gates
// see nothing past it — and a set whose prefix shard matches walks no
// block at all; input that matches nothing is walked whole.
func TestAnyStopsAtTheFirstMatch(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	// All but [a-p]{10}, which the filler's runs of "nee" match.
	a := compileArmSet(t, armPool[:len(armPool)-1], Options{Threads: 1})
	p := a.set.pre
	if len(p.win) == 0 || p.prefix == 0 || len(p.gates) == 0 {
		t.Fatalf("fixture lacks a window, prefix or gate shard: %+v", a.set.PrefilterStats())
	}
	early := settleTraffic(r, 1<<20, []int{2}, nil)
	none := settleTraffic(r, 1<<20, nil, nil)
	prefixed := append([]byte("HDR/42 "), none...)
	cases := []struct {
		name   string
		in     []byte
		hit    bool
		blocks int64 // bytes of input the block driver sweeps
	}{
		{"first block matches", early, true, scanBlock},
		{"prefix matches", prefixed, true, 0},
		{"nothing matches", none, false, int64(len(none))},
	}
	for _, c := range cases {
		for _, sched := range []string{"cascade", "whole"} {
			a.set.ForceArm(armSchedules[sched])
			if want := ones(a.want(c.in)) > 0; want != c.hit {
				t.Fatalf("%s: fixture matches %v (%x)", c.name, want, a.want(c.in))
			}
			before := a.set.PrefilterStats()
			if got := a.set.Any(c.in); got != c.hit {
				t.Fatalf("%s %s: Any %v, want %v", c.name, sched, got, c.hit)
			}
			after := a.set.PrefilterStats()
			swept := after.MatcherBytes - before.MatcherBytes + after.BypassedBytes - before.BypassedBytes
			total := after.TotalBytes - before.TotalBytes
			// The prefix shards come first, the gates only after every block.
			want := c.blocks*int64(len(p.win)) + int64(len(c.in)*p.prefix)
			if !c.hit {
				want += int64(len(c.in) * len(p.gates))
			}
			// The matcher sweeps a literal's length past each block's end.
			if swept < c.blocks || swept > c.blocks+c.blocks/scanBlock*int64(p.litMax) || total != want {
				t.Fatalf("%s %s: swept %d bytes, counted %d shard bytes; want %d and %d", c.name, sched, swept, total, c.blocks, want)
			}
		}
	}
}
