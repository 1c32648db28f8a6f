package multi

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
)

// checkOrMasksShards is the precondition engine.Lockstep.OrMasks keeps
// no fallback for: every shard the block driver or a Compose junction
// (composeWindows) can hand it — the window shards verified whole — is
// an eager engine with D's 256-wide table, of any layout but the class
// table. A window shard verified per rule must be lazy, and its set must
// never take the whole arm, which hands OrMasks every live window shard.
// It returns how many window shards are verified whole.
func checkOrMasksShards(t *testing.T, what string, s *Set) int {
	t.Helper()
	p, n := s.pre, 0
	for _, i := range p.win {
		if p.shards[i].rules != nil {
			if _, lazy := s.shards[i].m.(*engine.LazyMultiSFA); !lazy || !p.lazyWin {
				t.Fatalf("%s: window shard %d is verified per rule, but lazy=%v and whole arm off=%v", what, i, lazy, p.lazyWin)
			}
			continue
		}
		if m := eagerEngine(s.shards[i].m); m == nil || m.Layout() == engine.LayoutClass {
			t.Fatalf("%s: window shard %d is verified whole, but its engine is %s", what, i, s.shards[i].m.Info().Layout)
		}
		n++
	}
	return n
}

// TestOrMasksGetsOnlyEagerShards checks that precondition, at p = 1 and
// 2, over an eager set, the same set loaded from its snapshot, a Rebuild
// of it with one rule edited, and a lazily compiled set whose lazy
// window shards sit beside eager ones — so that a planner change routing
// a lazy or class-table shard to OrMasks, which would skip its windows
// silently, fails here.
func TestOrMasksGetsOnlyEagerShards(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, threads := range []int{1, 2} {
		o := Options{Threads: threads, SFABudget: 600}
		a := compileArmSet(t, armPool, o)
		keys := codecKeys(armPool)
		var buf bytes.Buffer
		if err := a.set.Encode(&buf, keys); err != nil {
			t.Fatal(err)
		}
		lo := o
		_, lo.Prefilter = armRules(t, armPool)
		loaded, err := DecodeSet(bytes.NewReader(buf.Bytes()), keys, lo)
		if err != nil {
			t.Fatal(err)
		}
		edited := slices.Clone(armPool)
		edited[0] = `needle[0-9]{1,7}x`
		ro := o
		nodes, rules := armRules(t, edited)
		ro.Prefilter = rules
		rebuilt, _, err := Recompile(nodes, codecKeys(edited), a.set, keys, ro)
		if err != nil {
			t.Fatal(err)
		}
		mixed := append(gapSet(r, 8), `SeCrEt`, `id=[0-9]{1,6}'`, `needle[0-9]{1,8}x`, `^h0[0-9]`)
		lazy := compileArmSet(t, mixed, gapOptions(threads)).set
		for _, c := range []struct {
			name string
			set  *Set
		}{{"eager", a.set}, {"loaded", loaded}, {"rebuilt", rebuilt}, {"lazy", lazy}} {
			what := fmt.Sprintf("p=%d %s", threads, c.name)
			if checkOrMasksShards(t, what, c.set) == 0 {
				t.Fatalf("%s: no window shard verified whole: %+v", what, c.set.Shards())
			}
		}
		if lazyWindowShards(t, "lazy", lazy) == 0 {
			t.Fatalf("p=%d: the lazy set has no lazy window shard: %+v", threads, lazy.Shards())
		}
	}
}

// account is one shard's walk account: chunks and bytes booked.
type account struct{ chunks, bytes int64 }

// booked runs f and returns each shard's account change across it.
func booked(s *Set, f func()) []account {
	before := s.Shards()
	f()
	out := make([]account, len(before))
	for i, sh := range s.Shards() {
		out[i] = account{sh.ScanChunks - before[i].ScanChunks, sh.ScanBytes - before[i].ScanBytes}
	}
	return out
}

// TestShardWalksBookedOnce: Scan, Any and a stream's Mask reach a
// prefix or gate shard only through a lock-step pass, which books each
// walk once — one chunk and exactly the bytes walked: a prefix shard
// its prefix of the input or of the stream's head, a gate shard the
// whole input. Window shards book windows, never chunks. At p = 1 and 2,
// over a set of window and prefix shards and a whole-input set of gate
// shards, which Any walks one at a time up to the first that matches.
func TestShardWalksBookedOnce(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	none := settleTraffic(r, 100<<10, nil, nil)
	hit := slices.Concat(none[:50<<10], []byte("user=root admin"), none[50<<10:])
	for _, threads := range []int{1, 2} {
		wp := compileArmSet(t, armPool[:10], Options{Threads: threads})
		p := wp.set.pre
		if len(p.win) == 0 || p.prefix == 0 || len(wp.set.carry) != 0 {
			t.Fatalf("p=%d: want only window and prefix shards: %+v", threads, wp.set.Shards())
		}
		// prefixOnly is the account of one walk of every prefix shard over
		// the first n bytes.
		prefixOnly := func(n int) []account {
			want := make([]account, len(wp.set.shards))
			for i := range want {
				if p.shards[i].mode == prePrefix {
					want[i] = account{1, int64(min(p.shards[i].maxLen, n))}
				}
			}
			return want
		}
		windowsOnly := func(got []account) []account {
			for _, i := range p.win {
				got[i].bytes = 0 // the windows' bytes, the block driver's account
			}
			return got
		}
		in := armTraffic(r, 100<<10, 64<<10)
		dst := make([]uint64, wp.set.Words())
		for _, c := range []struct {
			name string
			f    func()
		}{
			{"Scan", func() { wp.set.Scan(in, 1, dst) }},
			{"Any", func() { wp.set.Any(none) }},
		} {
			if got, want := windowsOnly(booked(wp.set, c.f)), prefixOnly(len(in)); !slices.Equal(got, want) {
				t.Fatalf("p=%d window and prefix set, %s: booked %v, want %v", threads, c.name, got, want)
			}
		}
		st := wp.set.NewStream()
		if got := windowsOnly(booked(wp.set, func() { streamIn(st, in, []int{4096, 100}) })); !slices.Equal(got, make([]account, len(got))) {
			t.Fatalf("p=%d: stream writes booked %v, want only windows", threads, got)
		}
		if got, want := booked(wp.set, func() { st.Mask(dst) }), prefixOnly(len(in)); !slices.Equal(got, want) {
			t.Fatalf("p=%d: stream Mask booked %v, want %v", threads, got, want)
		}

		gs := compileArmSet(t, []string{`begin[0-9]+end`, `(GET|POST) /.*\.php`, `user=.*admin`}, Options{Threads: threads, ForceShards: 3})
		if len(gs.set.pre.gates) != 3 || len(gs.set.pre.win) != 0 || gs.set.pre.prefix != 0 {
			t.Fatalf("p=%d: want three gate shards: %+v", threads, gs.set.Shards())
		}
		// first is the first shard matching in, or the shard count.
		first := func(in []byte) int {
			m := gs.want(in)
			for i, sh := range gs.set.shards {
				if slices.ContainsFunc(sh.rules, func(r int) bool { return m[r>>6]&(1<<(r&63)) != 0 }) {
					return i
				}
			}
			return len(gs.set.shards)
		}
		if first(none) != 3 || first(hit) == 3 {
			t.Fatalf("p=%d: the inputs match at shards %d and %d", threads, first(none), first(hit))
		}
		for _, in := range [][]byte{none, hit} {
			got := booked(gs.set, func() {
				if gs.set.Any(in) != (first(in) < 3) {
					t.Fatalf("p=%d: Any gave the wrong verdict", threads)
				}
			})
			for i, a := range got {
				if want := (account{1, int64(len(in))}); i <= first(in) && a != want || i > first(in) && a != (account{}) {
					t.Fatalf("p=%d gate set, Any (first match at shard %d): booked %v", threads, first(in), got)
				}
			}
		}
		got := booked(gs.set, func() { gs.set.Scan(hit, 1, make([]uint64, gs.set.Words())) })
		for i, a := range got {
			if a != (account{1, int64(len(hit))}) && (a != account{} || i == first(hit)) {
				t.Fatalf("p=%d gate set, Scan: booked %v, want each opened gate one walk of %d bytes", threads, got, len(hit))
			}
		}
	}
}
