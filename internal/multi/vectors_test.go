package multi

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/monoid"
	"repro/internal/regen"
	"repro/internal/snort"
	"repro/internal/syntax"
)

// vectorsResident reports whether s holds its mapping vectors: its
// MemoryBytes counts them only then.
func vectorsResident(s *core.DSFA) bool {
	return s.MemoryBytes() > int64(len(s.NextC))*4
}

// refVectors computes every state's transformation vector without the
// derivation under test: a word that reaches the state (a breadth-first
// search of the table, one representative byte per class), run through D
// from every DFA state.
func refVectors(t *testing.T, s *core.DSFA) [][]int16 {
	t.Helper()
	words := make([][]byte, s.NumStates)
	words[s.Start] = []byte{}
	queue := []int32{s.Start}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for c := 0; c < s.D.BC.Count; c++ {
			if to := s.NextClass(id, c); words[to] == nil {
				words[to] = append(slices.Clip(words[id]), s.D.BC.Rep[c])
				queue = append(queue, to)
			}
		}
	}
	vecs := make([][]int16, s.NumStates)
	for id, w := range words {
		if w == nil {
			t.Fatalf("state %d unreachable from the start", id)
		}
		vecs[id] = make([]int16, s.D.NumStates)
		for q := range vecs[id] {
			vecs[id][q] = int16(s.D.Run(int32(q), w))
		}
	}
	return vecs
}

// checkDerived requires of an automaton fresh from construction that it
// holds no vectors, that the vectors it derives on first use are the
// reference vectors state by state, and that its Accept and EmptyID are
// what the reference vectors give: f accepts iff D accepts f(D.Start),
// and EmptyID is the last everywhere-dead state. It reports whether D
// has a dead state.
func checkDerived(t *testing.T, what string, s *core.DSFA) bool {
	t.Helper()
	if vectorsResident(s) {
		t.Fatalf("%s: construction left %d bytes of vectors resident", what, s.MemoryBytes()-int64(len(s.NextC))*4)
	}
	ref := refVectors(t, s)
	d := s.D
	empty := int32(-1)
	for id, v := range ref {
		if acc := d.Accept[v[d.Start]]; s.Accept[id] != acc {
			t.Fatalf("%s: Accept[%d] = %v, reference %v", what, id, s.Accept[id], acc)
		}
		if d.Dead != dfa.NoDead && !slices.ContainsFunc(v, func(q int16) bool { return int32(q) != d.Dead }) {
			empty = int32(id)
		}
	}
	if s.EmptyID != empty {
		t.Fatalf("%s: EmptyID %d, reference %d", what, s.EmptyID, empty)
	}
	for id, v := range ref {
		if got := s.Map(int32(id)); !slices.Equal(got, v) {
			t.Fatalf("%s: derived vector of state %d is %v, reference %v", what, id, got, v)
		}
	}
	if want := int64(len(s.NextC))*4 + int64(s.NumStates*d.NumStates)*2; s.MemoryBytes() != want {
		t.Fatalf("%s: MemoryBytes %d after derivation, want %d", what, s.MemoryBytes(), want)
	}
	return d.Dead != dfa.NoDead
}

// TestDerivedVectorsMatchConstruction: both constructions — the
// vector-interning core.BuildDSFA and the tuple-interning tupleDSFA —
// release their vectors, and what a reader derives later is what the
// vectors are, with Accept and EmptyID unchanged. Both build the same
// number of states, and a shard's |S_d| is |M(D)|. Generated rule sets
// and the curated SNORT sample, compiled whole (D has a dead state) and
// for search (where D has one only if a rule is anchored).
func TestDerivedVectorsMatchConstruction(t *testing.T) {
	withDead, withoutDead := 0, 0
	count := func(dead bool) {
		if dead {
			withDead++
		} else {
			withoutDead++
		}
	}
	gen := regen.New(regen.Config{Alphabet: "abc", AllowClasses: true, AllowCounts: true}, 17)
	for round := 0; round < 6; round++ {
		// Patterns that match the empty word match every input once
		// bracketed for search: their search automata have one state.
		patterns := make([]string, 2+round%3)
		for i := range patterns {
			for nullable := true; nullable; {
				patterns[i] = gen.Pattern()
				d := dfa.MustCompilePattern(patterns[i])
				nullable = d.Accept[d.Start]
			}
		}
		for _, search := range []bool{false, true} {
			what := fmt.Sprintf("round %d search=%v %q", round, search, patterns)
			ds := make([]*dfa.DFA, len(patterns))
			comps := make([]*core.DSFA, len(patterns))
			for i, p := range patterns {
				n := syntax.MustParse(p, 0)
				if search {
					n = syntax.BracketForSearch(n)
				}
				d, err := dfa.Compile(n, 0)
				if err != nil {
					t.Fatal(err)
				}
				ds[i] = d
				if comps[i], err = core.BuildDSFA(d, 0); err != nil {
					t.Fatal(err)
				}
				count(checkDerived(t, what+fmt.Sprintf(" rule %d", i), comps[i]))
			}
			d, masks, err := productDFA(ds, 0)
			if err != nil {
				t.Fatal(err)
			}
			d, _ = minimizeMasked(d, masks, maskWords(len(ds)))
			ts, err := tupleDSFA(comps, d, 0)
			if err != nil {
				t.Fatal(err)
			}
			count(checkDerived(t, what+" tuple", ts))
			vs, err := core.BuildDSFA(d, 0)
			if err != nil {
				t.Fatal(err)
			}
			count(checkDerived(t, what+" vector", vs))
			// Equal, not merely ≥: see dsfaprod.go's note on tuple identity.
			if ts.NumStates != vs.NumStates {
				t.Fatalf("%s: tuple D-SFA has %d states, vector D-SFA %d", what, ts.NumStates, vs.NumStates)
			}
		}
	}
	rules := snort.ScanSample(8)
	for _, search := range []bool{false, true} {
		nodes := make([]*syntax.Node, len(rules))
		for i, r := range rules {
			nodes[i] = syntax.MustParse(r.Pattern, r.Flags)
			if search {
				nodes[i] = syntax.BracketForSearch(nodes[i])
			}
		}
		s, err := Compile(nodes, Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, sh := range s.shards {
			what := fmt.Sprintf("snort search=%v shard %d (%d rules)", search, i, len(sh.rules))
			sd := eagerEngine(sh.m).SFA()
			count(checkDerived(t, what, sd))
			// The states of a D-SFA are the elements of D's transition
			// monoid (Sect. VII-A), which monoid.Transition enumerates on
			// its own.
			m, err := monoid.Transition(sd.D, 0)
			if err != nil {
				t.Fatal(err)
			}
			if sd.NumStates != m.Size() {
				t.Fatalf("%s: |S_d| = %d, |M(D)| = %d", what, sd.NumStates, m.Size())
			}
		}
	}
	if withDead == 0 || withoutDead == 0 {
		t.Fatalf("checked %d automata over a D with a dead state and %d without; want both", withDead, withoutDead)
	}
}

// TestSaveBytesIndependentOfDerivation: a set saves the same bytes
// whether its vectors were derived by its first Save or earlier by a
// p = 2 scan (which derives them once: a second scan reuses them), and
// both are the bytes TestConstructionGolden pins.
func TestSaveBytesIndependentOfDerivation(t *testing.T) {
	for _, g := range goldenSets {
		t.Run(g.name, func(t *testing.T) {
			nodes := make([]*syntax.Node, len(g.patterns))
			keys := make([]string, len(g.patterns))
			for i, p := range g.patterns {
				nodes[i] = syntax.MustParse(p, 0)
				if g.search {
					nodes[i] = syntax.BracketForSearch(nodes[i])
				}
				keys[i] = "k\x00" + p
			}
			save := func(s *Set) string {
				var buf bytes.Buffer
				if err := s.Encode(&buf, keys); err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
			}
			o := g.o
			o.Threads = 2
			cold, err := Compile(nodes, o)
			if err != nil {
				t.Fatal(err)
			}
			scanned, err := Compile(nodes, o)
			if err != nil {
				t.Fatal(err)
			}
			for i, sh := range cold.shards {
				if vectorsResident(eagerEngine(sh.m).SFA()) {
					t.Fatalf("shard %d holds vectors before its first Save", i)
				}
			}
			in := bytes.Repeat([]byte("GET /a.php?id=12 ababc union select 555-1234 x--y "), 200)
			scanned.Scan(in, 1, make([]uint64, scanned.Words()))
			first := make([]*int16, len(scanned.shards))
			for i, sh := range scanned.shards {
				ds := eagerEngine(sh.m).SFA()
				if !vectorsResident(ds) {
					t.Fatalf("shard %d: a p = 2 scan of %d bytes derived no vectors", i, len(in))
				}
				first[i] = &ds.Map(ds.Start)[0]
			}
			scanned.Scan(in, 1, make([]uint64, scanned.Words()))
			for i, sh := range scanned.shards {
				if ds := eagerEngine(sh.m).SFA(); &ds.Map(ds.Start)[0] != first[i] {
					t.Fatalf("shard %d: a second p = 2 scan derived its vectors again", i)
				}
			}
			if got := save(cold); got != g.sha {
				t.Errorf("never-derived set saves bytes hashing to %s, want %s", got, g.sha)
			}
			if got := save(scanned); got != g.sha {
				t.Errorf("set derived by a p = 2 scan saves bytes hashing to %s, want %s", got, g.sha)
			}
		})
	}
}

// TestStreamsCarryVectorsOnlyForCarriedShards: a stream allocates
// carried mappings only for the shards that carry one (s.carry). A set of
// window and prefix shards holds none through Write, Mask, Compose and
// Reset; a set with gate and full shards holds one per carried shard and
// gives the reference verdicts through the same calls. The rule `^` is a
// prefix rule whose decisive prefix is empty: where it is the only
// prefix shard and no shard windows, the stream keeps no head buffer
// either, and Mask still gives its verdict, alone and beside carried
// shards.
func TestStreamsCarryVectorsOnlyForCarriedShards(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	in := armTraffic(r, 40<<10, 8<<10)
	sizes := []int{4096, 777, 9000}
	for _, tc := range []struct {
		name   string
		pats   []string
		shards int  // Options.ForceShards
		carry  bool // some shard carries a mapping
		noHead bool // a prefix shard with an empty prefix, and no head buffer
	}{
		{"window+prefix", armPool[:10], 0, false, false},
		{"with gate and full shards", armPool, 0, true, false},
		{"empty prefix alone", []string{`^`}, 0, false, true},
		{"empty prefix beside a gate shard", []string{`^`, `user=.*admin`}, 2, true, true},
		{"empty prefix beside a full shard", []string{`^`, `[a-p]{10}`}, 2, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := compileArmSet(t, tc.pats, Options{Threads: 1, ForceShards: tc.shards})
			s := a.set
			if got := len(s.carry) > 0; got != tc.carry {
				t.Fatalf("fixture plans %d carried shards", len(s.carry))
			}
			if tc.noHead {
				empty := slices.ContainsFunc(s.pre.shards, func(sp shardPre) bool { return sp.mode == prePrefix && sp.maxLen == 0 })
				if !empty || s.pre.maxSpan != 0 || s.pre.maxPre != 0 {
					t.Fatal("fixture: want an empty-prefix shard and no window or head")
				}
			}
			want := a.want(in)
			holds := func(st *SetStream, when string) {
				t.Helper()
				for i := range s.shards {
					carried := slices.Contains(s.carry, i)
					var cur, tmp []int16
					if st.cur != nil {
						cur, tmp = st.cur[i], st.tmp[i]
					}
					if (cur != nil) != carried || (tmp != nil) != carried {
						t.Fatalf("%s: shard %d (carried %v) holds cur %d, tmp %d entries", when, i, carried, len(cur), len(tmp))
					}
				}
			}
			got := make([]uint64, s.Words())
			st := s.NewStream()
			holds(st, "NewStream")
			for round := 0; round < 2; round++ {
				streamIn(st, in, sizes)
				if m := st.Mask(got); !slices.Equal(m, want) {
					t.Fatalf("round %d: streamed %x, want %x", round, m, want)
				}
				holds(st, "Write/Mask")
				st.Reset()
				holds(st, "Reset")
				if m := st.Mask(got); !slices.Equal(m, a.want(nil)) {
					t.Fatalf("round %d: after Reset %x, want %x", round, m, a.want(nil))
				}
			}
			tree := composeTree(s, r, in, []int{5000, 20000, 33333}, sizes)
			holds(tree, "Compose")
			if m := tree.Mask(got); !slices.Equal(m, want) {
				t.Fatalf("composed %x, want %x", m, want)
			}
		})
	}
}
