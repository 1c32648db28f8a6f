package multi

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

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

// TestKnownStartSetHoldsOnlyDFATables: a p = 1 set whose shards are all
// window or prefix shards never walks from an unknown start, so it builds
// no D-SFA table — TableBytes stays at Σ D tables through one-shot scans
// (in order and block-parallel), streamed writes and masks, a Compose
// tree, and a snapshot round trip, and the verdicts stay the reference
// DFAs'.
func TestKnownStartSetHoldsOnlyDFATables(t *testing.T) {
	pats := armPool[:10] // windowable and begin-anchored rules only
	a := compileArmSet(t, pats, Options{Threads: 1})
	r := rand.New(rand.NewSource(5))
	in := armTraffic(r, 200<<10, 64<<10)
	want := a.want(in)
	sizes := []int{4096, 5000, 100, 70000}
	check := func(s *Set, when string) {
		t.Helper()
		var shards int64
		for _, sh := range s.Shards() {
			shards += sh.TableBytes
		}
		if tb, d := s.TableBytes(), dfaTableBytes(s); tb != d || shards != d {
			t.Fatalf("%s: TableBytes %d, Σ ShardInfo.TableBytes %d, want Σ D tables %d", when, tb, shards, d)
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
		check(s, when+": Scan")
		st := s.NewStream()
		streamIn(st, in, sizes)
		if m := st.Mask(got); !slices.Equal(m, want) {
			t.Fatalf("%s: streamed %x, want %x", when, m, want)
		}
		check(s, when+": stream Write/Mask")
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
	check(loaded, "snapshot load")
	scan(loaded, "loaded")
}
