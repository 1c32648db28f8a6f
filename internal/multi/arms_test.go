package multi

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

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
	nodes := make([]*syntax.Node, len(patterns))
	o.Prefilter = make([]prefilter.Rule, len(patterns))
	for i, p := range patterns {
		n, err := syntax.Parse(p, syntax.DotAll)
		if err != nil {
			t.Fatal(err)
		}
		o.Prefilter[i] = prefilter.Extract(n, true)
		nodes[i] = syntax.BracketForSearch(n)
		d, err := dfa.Compile(nodes[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		a.oracle = append(a.oracle, d)
	}
	s, err := Compile(nodes, o)
	if err != nil {
		t.Fatal(err)
	}
	a.set = s
	return a
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
		chunkings := [][]int{{200 << 10}, {64 << 10}, {4096, 5000, 100, 70000}, {1 << 10, 37, 4095}}
		tiny := [][]int{{1}, {2, 3, 1}, {7}, {13, 40, 5}}
		for _, threads := range []int{1, 2, 4} {
			// A small shard budget splits the windowable rules over
			// several window shards, the case lock-step walks.
			a := compileArmSet(t, patterns, Options{Threads: threads, SFABudget: 600})
			for _, sh := range a.set.Shards() {
				if sh.Prefilter == "window" {
					windowShards++
				}
			}
			got := make([]uint64, a.set.Words())
			for name, sched := range armSchedules {
				a.set.ForceArm(sched)
				for ii, in := range inputs {
					want := a.want(in)
					what := fmt.Sprintf("set %d %v p=%d schedule %s input %d (%d B)", si, patterns, threads, name, ii, len(in))
					for _, workers := range []int{1, 0} {
						if m := a.set.Scan(in, workers, got); !slices.Equal(m, want) {
							t.Fatalf("%s: Scan(workers=%d) %x, want %x", what, workers, m, want)
						}
					}
					cs := chunkings
					if len(in) < 8<<10 {
						cs = append(slices.Clone(chunkings[2:]), tiny...)
					}
					for _, sizes := range cs {
						st := a.set.NewStream()
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
						if m := composeTree(a.set, r, in, cuts, sizes).Mask(got); !slices.Equal(m, want) {
							t.Fatalf("%s: composed at %v in %v: %x, want %x", what, cuts, sizes, m, want)
						}
					}
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
					streamIn(st, in, []int{4096 + g*1000, 64 << 10, 100})
					if m := st.Mask(got); !slices.Equal(m, want) {
						errs <- fmt.Errorf("%s: goroutine %d stream %x, want %x", sched, g, m, want)
						return
					}
					if m := a.set.Scan(in, g%2, got); !slices.Equal(m, want) {
						errs <- fmt.Errorf("%s: goroutine %d scan %x, want %x", sched, g, m, want)
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
// the bytes each walked, and on the whole arm, evenly.
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
}
