package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/regen"
	"repro/internal/syntax"
)

// knownStartLens straddle the 4 KiB threshold below which a pooled walk
// runs as one chunk on the calling goroutine.
var knownStartLens = []int{0, 1, 97, streamSequentialMax - 1, streamSequentialMax, streamSequentialMax + 1, 9000}

// knownStartText is random text over the generator's alphabet, with a
// member of the pattern's language planted every so often so that both
// verdicts occur.
func knownStartText(r *rand.Rand, member []byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = "abc"[r.Intn(3)]
	}
	for at := r.Intn(64); len(member) > 0 && at+len(member) <= n; at += 200 + r.Intn(800) {
		copy(out[at:], member)
	}
	return out
}

// sfaReference is the DFA state text reaches from D.Start through the
// D-SFA alone: one chunk from the identity, its mapping applied to D's
// start — the reference every known-start walk must equal.
func sfaReference(m *MultiSFA, text []byte) int32 {
	return core.ApplyVec(m.s.Map(m.runChunk(text)), m.s.D.Start)
}

// TestKnownStartAgreesWithSFAWalk is the differential of the two walks:
// for regen patterns (whole-input and search-bracketed), every layout,
// p ∈ {1, 2, 4}, spawn on and off, and lengths on both sides of 4 KiB,
// D's own walk from D.Start, the chunked D-SFA walk and the class-table
// DFA walk reach the same DFA state, and MatchMask, OrMask, Match and a
// lock-step pass give the same verdict.
func TestKnownStartAgreesWithSFAWalk(t *testing.T) {
	gen := regen.New(regen.Config{Alphabet: "abc", AllowClasses: true, AllowCounts: true}, 31)
	r := rand.New(rand.NewSource(31))
	layouts := []TableLayout{LayoutAuto, LayoutU8, LayoutU16, LayoutI32, LayoutClass}
	tested, verdicts := 0, [2]int{}
	for tested < 12 {
		pat := gen.Pattern()
		member, ok := gen.Member(syntax.MustParse(pat, 0), 64)
		if !ok || len(member) == 0 {
			continue
		}
		for _, search := range []bool{false, true} {
			src := pat
			if search {
				src = `.*(` + pat + `).*`
			}
			d, err := dfa.CompilePattern(src, syntax.DotAll, 0)
			if err != nil {
				t.Fatal(err)
			}
			s, err := core.BuildDSFA(d, 50_000)
			if err != nil {
				continue // a D-SFA past the cap: nothing to compare
			}
			texts := make([][]byte, len(knownStartLens))
			for i, n := range knownStartLens {
				texts[i] = knownStartText(r, member, n)
			}
			for _, l := range layouts {
				for _, p := range []int{1, 2, 4} {
					for _, spawn := range []bool{false, true} {
						opts := []Option{WithLayout(l)}
						if spawn {
							opts = append(opts, WithSpawn())
						}
						m := NewSFAParallel(s, p, ReduceSequential, opts...)
						what := fmt.Sprintf("%q layout=%s p=%d spawn=%v", src, l, p, spawn)
						checkKnownStart(t, m, d, texts, what, &verdicts)
					}
				}
			}
			checkKnownStartLockstep(t, s, texts, src)
		}
		tested++
	}
	if verdicts[0] == 0 || verdicts[1] == 0 {
		t.Fatalf("verdicts (reject, accept) = %v: the texts do not exercise both", verdicts)
	}
}

func checkKnownStart(t *testing.T, m *MultiSFA, d *dfa.DFA, texts [][]byte, what string, verdicts *[2]int) {
	t.Helper()
	dst := make([]uint64, 1)
	for _, text := range texts {
		want := d.Run(d.Start, text)
		if got := m.runDFA(text); got != want {
			t.Fatalf("%s len=%d: known-start walk reaches %d, class-table DFA %d", what, len(text), got, want)
		}
		if got := sfaReference(m, text); got != want {
			t.Fatalf("%s len=%d: D-SFA walk reaches %d, class-table DFA %d", what, len(text), got, want)
		}
		if m.threads > 1 {
			if got := m.run(text); got != want {
				t.Fatalf("%s len=%d: chunked D-SFA walk reaches %d, class-table DFA %d", what, len(text), got, want)
			}
		}
		acc := d.Accept[want]
		if acc {
			verdicts[1]++
		} else {
			verdicts[0]++
		}
		if got := m.MatchMask(text, dst)[0] != 0; got != acc {
			t.Fatalf("%s len=%d: MatchMask %v, DFA accepts %v", what, len(text), got, acc)
		}
		dst[0] = 0
		if m.OrMask(text, dst); (dst[0] != 0) != acc {
			t.Fatalf("%s len=%d: OrMask %v, DFA accepts %v", what, len(text), dst[0] != 0, acc)
		}
		if got := m.Match(text); got != acc {
			t.Fatalf("%s len=%d: Match %v, DFA accepts %v", what, len(text), got, acc)
		}
	}
}

// checkKnownStartLockstep runs pairs of u16 engines of s through a
// lock-step pass, where the mask forms walk D from D.Start below the
// threshold and the D-SFA above it, and compares each with the D-SFA
// reference.
func checkKnownStartLockstep(t *testing.T, s *core.DSFA, texts [][]byte, what string) {
	t.Helper()
	for _, p := range []int{1, 2, 4} {
		a := NewSFAParallel(s, p, ReduceSequential, WithLayout(LayoutU16))
		b := NewSFAParallel(s, p, ReduceSequential, WithLayout(LayoutU16))
		g := NewLockstep([]ShardEngine{a, b})
		sel := []int{0, 1}
		for _, text := range texts {
			want := a.row(sfaReference(a, text))[0]
			got := [][]uint64{{0xdead}, {0xdead}}
			g.MatchMasks(sel, text, got)
			or := [][]uint64{{0}, {0}}
			g.OrMasks(sel, text, or)
			for i := range sel {
				if got[i][0] != want || or[i][0] != want {
					t.Fatalf("%q p=%d len=%d engine %d: lock-step mask %x, or-mask %x, D-SFA %x",
						what, p, len(text), i, got[i][0], or[i][0], want)
				}
			}
		}
	}
}

// TestSmallMatchMaskStaysOnCaller is the pooled-dispatch threshold: a
// MatchMask below 4 KiB at p = 2 submits no pool task, builds no D-SFA
// table and gives the mask the D-SFA walk gives; one of 4 KiB or more
// goes to the pool.
func TestSmallMatchMaskStaysOnCaller(t *testing.T) {
	pool := NewPool(2)
	m, d := multiFixture(t, 2, WithPool(pool))
	ref, _ := multiFixture(t, 1)
	dtab := int64(d.NumStates) * 512
	dst := make([]uint64, 1)
	tasks := func() int64 { st := pool.Stats(); return st.Submitted + st.Inline }
	small := []byte("0459045904")
	before := tasks()
	got := m.MatchMask(small, dst)[0]
	if n := tasks() - before; n != 0 {
		t.Fatalf("small MatchMask at p=2 ran %d pool tasks, want 0", n)
	}
	if want := ref.row(sfaReference(ref, small))[0]; got != want {
		t.Fatalf("small MatchMask %x, D-SFA walk %x", got, want)
	}
	if tb := m.TableBytes(); tb != dtab {
		t.Fatalf("after a known-start walk TableBytes = %d, want D's table %d", tb, dtab)
	}
	big := make([]byte, streamSequentialMax)
	copy(big, "0459")
	for i := 4; i < len(big); i++ {
		big[i] = "0459"[i%4]
	}
	before = tasks()
	got = m.MatchMask(big, dst)[0]
	if n := tasks() - before; n != 1 {
		t.Fatalf("4 KiB MatchMask at p=2 ran %d pool tasks, want 1", n)
	}
	if want := ref.row(sfaReference(ref, big))[0]; got != want {
		t.Fatalf("4 KiB MatchMask %x, D-SFA walk %x", got, want)
	}
	if tb, want := m.TableBytes(), dtab+int64(m.s.NumStates)*256; tb != want {
		t.Fatalf("after an unknown-start walk TableBytes = %d, want %d (D + u8 D-SFA)", tb, want)
	}
}

// TestSFATableBuiltOnce: concurrent first walks with unknown starts —
// chunked MatchMask, Match, ComposeChunk and a lock-step pass — build the
// D-SFA table exactly once: every caller sees the one published table,
// and later walks keep it.
func TestSFATableBuiltOnce(t *testing.T) {
	d := dfa.MustCompilePattern(`([0-4]{2}[5-9]{2})*`)
	s, err := core.BuildDSFA(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := NewSFAParallel(s, 2, ReduceSequential, WithLayout(LayoutU16))
	other := NewSFAParallel(s, 2, ReduceSequential, WithLayout(LayoutU16))
	g := NewLockstep([]ShardEngine{m, other})
	if m.sfaTab.Load() != nil || m.TableBytes() != int64(d.NumStates)*512 {
		t.Fatalf("a new engine holds %d table bytes, want D's %d alone", m.TableBytes(), d.NumStates*512)
	}
	text := make([]byte, 2*streamSequentialMax)
	for i := range text {
		text[i] = "0055"[i%4]
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]uint64, 1)
			cur, tmp := make([]int16, m.MappingLen()), make([]int16, m.MappingLen())
			m.InitMapping(cur)
			switch w % 4 {
			case 0:
				m.MatchMask(text, dst)
			case 1:
				m.Match(text)
			case 2:
				m.ComposeChunk(cur, tmp, text)
			default:
				g.MatchMasks([]int{0, 1}, text, [][]uint64{dst, make([]uint64, 1)})
			}
		}(w)
	}
	wg.Wait()
	tab := m.sfaTab.Load()
	if tab == nil {
		t.Fatal("no D-SFA table after unknown-start walks")
	}
	want := int64(d.NumStates+s.NumStates) * 512
	if tb := m.TableBytes(); tb != want {
		t.Fatalf("TableBytes = %d, want D + D-SFA = %d", tb, want)
	}
	m.MatchMask(text, make([]uint64, 1))
	if m.sfaTab.Load() != tab || m.sfaTables() != tab {
		t.Fatal("the D-SFA table was built again")
	}
}
