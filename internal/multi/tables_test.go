package multi

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/prefilter"
	"repro/internal/syntax"
)

// dfaTableBytes is Σ over the set's shards of their product DFA's u16
// 256-wide table: what an eager set holds while every walk starts at a
// known state.
func dfaTableBytes(s *Set) int64 {
	var n int64
	for _, sh := range s.shards {
		n += int64(eagerEngine(sh.m).SFA().D.NumStates) * 512
	}
	return n
}

// TestKnownStartSetHoldsOnlyDFATables: a set whose shards are all window
// or prefix shards never walks from an unknown start, so it builds no
// D-SFA table and derives no D-SFA mapping vector — TableBytes stays at
// Σ D tables and no shard's D-SFA holds vectors through one-shot scans
// (in order and block-parallel), Any, streamed writes, masks and resets,
// a Compose tree, Shards and BuildReport; after a snapshot round trip the
// tables stay D's. The verdicts stay the reference DFAs'. That holds at
// p = 1 and at p = 2 with every block on the whole arm, where the window
// shards' blocks of 4 KiB or more are cut into two sub-chunks that
// overlap by the longest occurrence and start at D's start state.
func TestKnownStartSetHoldsOnlyDFATables(t *testing.T) {
	pats := armPool[:10] // windowable and begin-anchored rules only
	a := compileArmSet(t, pats, Options{Threads: 1})
	r := rand.New(rand.NewSource(5))
	in := armTraffic(r, 200<<10, 64<<10)
	want := a.want(in)
	sizes := []int{4096, 5000, 100, 70000}
	// vectors is false for a set whose vectors are resident by design:
	// a decoded one.
	vectors := true
	check := func(s *Set, when string) {
		t.Helper()
		var shards int64
		for _, sh := range s.Shards() {
			shards += sh.TableBytes
		}
		if tb, d := s.TableBytes(), dfaTableBytes(s); tb != d || shards != d {
			t.Fatalf("%s: TableBytes %d, Σ ShardInfo.TableBytes %d, want Σ D tables %d", when, tb, shards, d)
		}
		_ = s.BuildReport()
		for i, sh := range s.shards {
			if vectors && vectorsResident(eagerEngine(sh.m).SFA()) {
				t.Fatalf("%s: shard %d derived its D-SFA's mapping vectors", when, i)
			}
		}
	}
	scan := func(s *Set, when string) {
		t.Helper()
		got := make([]uint64, s.Words())
		for _, workers := range []int{1, 0} {
			if m := s.Scan(in, workers, got); !slices.Equal(m, want) {
				t.Fatalf("%s: Scan(workers=%d) %x, want %x", when, workers, m, want)
			}
		}
		if hit := s.Any(in); hit != slices.ContainsFunc(want, func(w uint64) bool { return w != 0 }) {
			t.Fatalf("%s: Any %v, want mask %x", when, hit, want)
		}
		check(s, when+": Scan and Any")
		st := s.NewStream()
		streamIn(st, in, sizes)
		if m := st.Mask(got); !slices.Equal(m, want) {
			t.Fatalf("%s: streamed %x, want %x", when, m, want)
		}
		st.Reset()
		streamIn(st, in, sizes)
		if m := st.Mask(got); !slices.Equal(m, want) {
			t.Fatalf("%s: streamed after Reset %x, want %x", when, m, want)
		}
		check(s, when+": stream Write/Mask/Reset")
		if m := composeTree(s, r, in, []int{1000, 70000, 150000}, sizes).Mask(got); !slices.Equal(m, want) {
			t.Fatalf("%s: composed %x, want %x", when, m, want)
		}
		check(s, when+": Compose")
	}

	s := a.set
	if len(s.carry) != 0 {
		t.Fatalf("fixture plans %d shards that carry mappings; want only window and prefix shards", len(s.carry))
	}
	check(s, "build")
	scan(s, "built")

	// p = 2, every block on the whole arm: the window shards walk blocks
	// of 4 KiB or more in two overlapping known-start sub-chunks on the
	// pool, so nothing changes but the pool's task count.
	pool := engine.NewPool(2)
	p2 := compileArmSet(t, pats, Options{Threads: 2, Pool: pool}).set
	p2.ForceArm(func(int64) bool { return true })
	check(p2, "p = 2 build")
	scan(p2, "p = 2")
	if st := pool.Stats(); st.Submitted+st.Inline == 0 {
		t.Fatal("p = 2: no window walk was cut into sub-chunks")
	}

	keys := codecKeys(pats)
	var buf bytes.Buffer
	if err := s.Encode(&buf, keys); err != nil {
		t.Fatal(err)
	}
	// The snapshot holds automata only; the loader re-arms the cascade
	// from the rules, as sfa.LoadRuleSet does.
	o := Options{Threads: 1, Prefilter: make([]prefilter.Rule, len(pats))}
	for i, p := range pats {
		o.Prefilter[i] = prefilter.Extract(syntax.MustParse(p, syntax.DotAll), true)
	}
	loaded, err := DecodeSet(bytes.NewReader(buf.Bytes()), keys, o)
	if err != nil {
		t.Fatal(err)
	}
	vectors = false // a decoded D-SFA keeps the vectors it decoded
	check(loaded, "snapshot load")
	scan(loaded, "loaded")
	o.Threads, o.Pool = 2, pool
	loaded2, err := DecodeSet(bytes.NewReader(buf.Bytes()), keys, o)
	if err != nil {
		t.Fatal(err)
	}
	loaded2.ForceArm(func(int64) bool { return true })
	check(loaded2, "p = 2 snapshot load")
	scan(loaded2, "p = 2 loaded")
}
