package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/regen"
	"repro/internal/syntax"
	"repro/internal/textgen"
)

// lockstepPatterns are substring searches over HTTP-like traffic, in the
// shape of the rule sets the multi-pattern compiler shards. Their
// D-SFAs have 120 to 2 500 states, so LayoutAuto resolves some to u8
// and most to u16.
var lockstepPatterns = []string{
	`Host: [a-z0-9.-]{4,40}\n`,
	`Content-Length: \d{7,}`,
	`(GET|POST|HEAD|PUT|DELETE|TRACE) `,
	`(admin|root|guest)::`,
	`User-Agent: (curl|Wget)/\d`,
	`/(cmd|command)\.exe`,
	`(select|union|insert|update) `,
	`/cgi-bin/[a-z]{2,12}\.cgi`,
	`id=\d{1,6}'`,
}

// lockstepEngine compiles one search-bracketed pattern into an eager
// engine whose single mask bit is the pattern's accept bit.
func lockstepEngine(t testing.TB, pattern string, threads int, opts ...Option) *MultiSFA {
	t.Helper()
	d, err := dfa.CompilePattern(`.*(`+pattern+`).*`, syntax.DotAll, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.BuildDSFA(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	masks := make([]uint64, d.NumStates)
	for q := range masks {
		if d.Accept[q] {
			masks[q] = 1
		}
	}
	return NewMultiSFA(s, masks, 1, threads, opts...)
}

// TestLockstepAgreesWithSingleWalks is the kernel's contract: for k in
// 1…9 engines — all u16, or mixed with u8, i32 and spawn-mode engines,
// which join only passes that start known, and class-table engines,
// which MatchMasks and ComposeChunks hand to their own walk and OrMasks
// is never given — every subset selection gives exactly what k single
// MatchMask / ComposeChunk calls give, and OrMasks the mask of the one
// walk, at every thread count and for inputs on both sides of the
// sequential threshold. Each pass takes exactly the engines its kind
// admits (tookEngines), a lone one included.
func TestLockstepAgreesWithSingleWalks(t *testing.T) {
	traffic, _ := textgen.Traffic{SuspiciousPerMille: 30}.Generate(40<<10, 5)
	inputs := [][]byte{nil, traffic[:1], traffic[:97], traffic[:4095], traffic[:4097], traffic}
	r := rand.New(rand.NewSource(9))
	for _, threads := range []int{1, 2, 4} {
		for _, mixed := range []bool{false, true} {
			var all []*MultiSFA
			for i, p := range lockstepPatterns {
				opts := []Option{WithLayout(LayoutU16)}
				if mixed {
					// Auto leaves the small engines in u8; the rest cover
					// the other walks a pass must fall back to.
					opts = [][]Option{nil, {WithLayout(LayoutI32)}, nil, nil, {WithLayout(LayoutClass)}, nil, {WithSpawn()}}[i%7]
				}
				all = append(all, lockstepEngine(t, p, threads, opts...))
			}
			if mixed && (all[3].Layout() != LayoutU8 || all[0].Layout() != LayoutU16) {
				t.Fatalf("mixed fixture lost its u8/u16 pair: %s, %s", all[3].Layout(), all[0].Layout())
			}
			for k := 1; k <= len(all); k++ {
				ms := all[:k]
				engines := make([]ShardEngine, k)
				for i, m := range ms {
					engines[i] = m
				}
				g := NewLockstep(engines)
				sels := [][]int{nil}
				full := make([]int, k)
				for i := range full {
					full[i] = i
				}
				sels = append(sels, full)
				var sub []int
				for i := 0; i < k; i++ {
					if r.Intn(2) == 0 {
						sub = append(sub, i)
					}
				}
				sels = append(sels, sub)
				for _, sel := range sels {
					for _, in := range inputs {
						checkLockstep(t, g, ms, sel, in, fmt.Sprintf("p=%d mixed=%v k=%d sel=%v len=%d", threads, mixed, k, sel, len(in)))
					}
				}
			}
		}
	}
}

func checkLockstep(t *testing.T, g *Lockstep, ms []*MultiSFA, sel []int, in []byte, what string) {
	t.Helper()
	// admitted lists the members of sel a pass takes: every engine with
	// D's table when its walks start known, else the pooled u16 ones.
	admitted := func(known bool) []int {
		var want []int
		for _, i := range sel {
			if l := ms[i].Layout(); l != LayoutClass && (known || l == LayoutU16 && !ms[i].spawn) {
				want = append(want, i)
			}
		}
		return want
	}
	orSel := admitted(true) // OrMasks is given eager engines only
	k := len(ms)
	got := make([][]uint64, k)
	or := make([][]uint64, k)
	curs, tmps := make([][]int16, k), make([][]int16, k)
	wantCur := make([][]int16, k)
	for i, m := range ms {
		got[i] = []uint64{0xdead}
		or[i] = []uint64{2}
		curs[i], tmps[i] = make([]int16, m.MappingLen()), make([]int16, m.MappingLen())
		m.InitMapping(curs[i])
		// Carry a non-identity mapping in, so the fold's operand order shows.
		curs[i], tmps[i] = m.ComposeChunk(curs[i], tmps[i], []byte("GET /x"))
		wantCur[i] = slices.Clone(curs[i])
	}
	g.MatchMasks(sel, in, got)
	if took, want := tookEngines(g), admitted(g.Threads() == 1 || len(in) < streamSequentialMax); len(sel) > 0 && !slices.Equal(took, want) {
		t.Fatalf("%s: MatchMasks took engines %v, want %v", what, took, want)
	}
	// The engines are search-bracketed, so no occurrence in the input is
	// longer than the input: a valid overlap at any length.
	g.OrMasks(orSel, in, len(in), or)
	g.ComposeChunks(sel, curs, tmps, in)
	if took, want := tookEngines(g), admitted(false); len(sel) > 0 && len(in) > 0 && !slices.Equal(took, want) {
		t.Fatalf("%s: ComposeChunks took engines %v, want %v", what, took, want)
	}
	for i, m := range ms {
		if !slices.Contains(orSel, i) && or[i][0] != 2 {
			t.Fatalf("%s: engine %d is outside the OrMasks selection but was written", what, i)
		}
		if !slices.Contains(sel, i) {
			if got[i][0] != 0xdead || !slices.Equal(curs[i], wantCur[i]) {
				t.Fatalf("%s: engine %d is outside sel but was written", what, i)
			}
			continue
		}
		want := m.MatchMask(in, make([]uint64, 1))[0]
		if got[i][0] != want {
			t.Fatalf("%s: engine %d MatchMasks %x, single %x", what, i, got[i][0], want)
		}
		if slices.Contains(orSel, i) && or[i][0] != want|2 {
			t.Fatalf("%s: engine %d OrMasks %x, single %x", what, i, or[i][0], want|2)
		}
		c, _ := m.ComposeChunk(wantCur[i], make([]int16, m.MappingLen()), in)
		if !slices.Equal(curs[i], c) {
			t.Fatalf("%s: engine %d ComposeChunks mapping differs from the single fold", what, i)
		}
	}
}

// shortestOccurrence returns the shortest substring of w that d (a
// whole-input DFA) accepts: an occurrence no proper substring of which is
// an occurrence.
func shortestOccurrence(d *dfa.DFA, w []byte) []byte {
	for n := 0; n <= len(w); n++ {
		for i := 0; i+n <= len(w); i++ {
			if d.Accepts(w[i : i+n]) {
				return w[i : i+n]
			}
		}
	}
	return nil
}

// tookEngines lists the engines g's last pass walked itself rather than
// handing them to their own walk, read from the spare context: only a
// pass that took a context leaves it there.
func tookEngines(g *Lockstep) []int {
	if c := g.spare.Load(); c != nil {
		return slices.Clone(c.idx)
	}
	return nil
}

// quarteredEngines is how many engines g's last pass walked as
// quarters: the lane count a test can see at p = 1, where no pool task
// shows the cut.
func quarteredEngines(g *Lockstep) int {
	c := g.spare.Load()
	if c == nil || c.lanes != lockstepWidth {
		return 0
	}
	return len(c.ms) - c.grouped
}

// boundedCuts lists every place a bounded pass over n bytes at p
// threads with the given back-up cuts its text: the p sub-chunk cuts
// and, inside each backed-up sub-chunk, the three quarter cuts.
func boundedCuts(n, p, back int) []int {
	var cuts []int
	for i := 0; i < p; i++ {
		lo, hi := span(n, p, i)
		if i > 0 {
			cuts = append(cuts, lo)
		}
		lo = max(lo-back, 0)
		for l := 0; l < lockstepWidth-1; l++ {
			_, q := span(hi-lo, lockstepWidth, l)
			cuts = append(cuts, lo+q)
		}
	}
	return cuts
}

// TestOrMasksOverlapAgreesWithOneWalk is the bounded pass's contract.
// Bounded regen patterns and Host's, search-bracketed, are given
// occurrences with no shorter occurrence inside them (3 to 47 bytes);
// each is planted in text of a byte no pattern matches, at every offset
// across every cut — sub-chunk and quarter. For k ∈ {1, 2, 3, 5, 6}
// engines (groups of four and engines left over, with the planted
// pattern's engine among the grouped and among the quartered), p ∈ {1,
// 2, 4} and lengths around 4 KiB and past 64 KiB, OrMasks must give each
// engine the mask of one walk of D over the whole text, cut from 4 KiB
// on (pool tasks at p > 1, quartered engines at every p). With the
// overlap the longest occurrence, a piece that re-walked one byte less
// would miss the occurrence ending just past its cut; with the overlap
// the whole text, every back-up clamps at the start. No engine builds
// its D-SFA table or derives a mapping vector.
func TestOrMasksOverlapAgreesWithOneWalk(t *testing.T) {
	gen := regen.New(regen.Config{Alphabet: "abc", AllowClasses: true, AllowCounts: true}, 41)
	var pats []string
	var occs [][]byte
	for len(pats) < 6 {
		pat := gen.Pattern()
		if strings.ContainsAny(pat, "*+") {
			continue // unbounded
		}
		member, ok := gen.Member(syntax.MustParse(pat, 0), 64)
		if !ok {
			continue
		}
		if w := shortestOccurrence(dfa.MustCompilePattern(pat), member); len(w) >= 3 {
			pats, occs = append(pats, pat), append(occs, w)
		}
	}
	// The regen occurrences are a few bytes long; Host's is 47, so its
	// back-up is long against a quarter (1 KiB of a 4 KiB window).
	pats = append(pats, lockstepPatterns[0])
	occs = append(occs, []byte("Host: "+strings.Repeat("a", 40)+"\n"))
	longest := 0
	for _, w := range occs {
		longest = max(longest, len(w))
	}
	verdicts := [2]int{}
	for _, p := range []int{1, 2, 4} {
		pool := NewPool(2)
		tasks := func() int64 { st := pool.Stats(); return st.Submitted + st.Inline }
		ms := make([]*MultiSFA, len(pats))
		engines := make([]ShardEngine, len(pats))
		for i, pat := range pats {
			ms[i] = lockstepEngine(t, pat, p, WithLayout(LayoutU16), WithPool(pool))
			engines[i] = ms[i]
		}
		g := NewLockstep(engines)
		lengths := []int{streamSequentialMax - 1, streamSequentialMax, 64<<10 + 298}
		if p > 1 {
			lengths = []int{streamSequentialMax - 1, streamSequentialMax, streamSequentialMax + 1, 10007}
		}
		for _, n := range lengths {
			cut := n >= streamSequentialMax
			for j, w := range occs {
				if raceEnabled && len(w) < longest {
					continue // the tight back-up alone: -race runs ten times slower
				}
				for _, at0 := range boundedCuts(n, p, longest-1) {
					for at := max(at0-len(w), 0); at <= min(at0, n-len(w)); at++ {
						text := bytes.Repeat([]byte{'x'}, n)
						copy(text[at:], w)
						want := make([]uint64, len(ms))
						for e, m := range ms {
							want[e] = m.row(m.runDFA(text))[0]
						}
						overlaps := []int{longest}
						if at == at0 {
							overlaps = append(overlaps, n) // once per cut: every piece is the whole text
						}
						for _, overlap := range overlaps {
							for _, k := range []int{1, 2, 3, 5, 6} {
								// Engine j first (grouped when k > 4) and, when
								// that is another place, last (quartered).
								orders := []bool{false}
								if k > lockstepWidth {
									orders = append(orders, true)
								}
								for _, last := range orders {
									sel := make([]int, k)
									for e := range sel {
										sel[e] = (j + e) % len(ms)
									}
									if last {
										slices.Reverse(sel)
									}
									dsts := make([][]uint64, len(ms))
									for e := range dsts {
										dsts[e] = []uint64{0}
									}
									before := tasks()
									g.OrMasks(sel, text, overlap, dsts)
									if ran := tasks() > before; ran != (cut && p > 1) {
										t.Fatalf("p=%d len=%d overlap=%d: split %v, want %v", p, n, overlap, ran, cut && p > 1)
									}
									if q, want := quarteredEngines(g), k%lockstepWidth; cut && q != want || !cut && q != 0 {
										t.Fatalf("p=%d k=%d len=%d: %d engines walked as quarters", p, k, n, q)
									}
									for _, e := range sel {
										if dsts[e][0] != want[e] {
											t.Fatalf("p=%d k=%d sel=%v len=%d overlap=%d: %q planted at %d (cut %d), engine %d (%q): OrMasks %x, one walk %x",
												p, k, sel, n, overlap, w, at, at0, e, pats[e], dsts[e][0], want[e])
										}
										verdicts[want[e]]++
									}
								}
							}
						}
					}
				}
			}
		}
		for i, m := range ms {
			if tb, d := m.TableBytes(), int64(len(m.dtab))*2; tb != d {
				t.Fatalf("p=%d engine %d: TableBytes %d, want D's table %d", p, i, tb, d)
			}
			if m.s.MemoryBytes() > int64(len(m.s.NextC))*4 {
				t.Fatalf("p=%d engine %d derived its D-SFA's mapping vectors", p, i)
			}
		}
	}
	if verdicts[0] == 0 || verdicts[1] == 0 {
		t.Fatalf("verdicts (reject, accept) = %v: the texts do not exercise both", verdicts)
	}
}

// TestBoundedPassTakesEveryEagerEngine: a bounded pass takes a lone
// engine, and engines of every layout with D's 256-wide table, into its
// cut — one u16 engine, u8 engines, an i32 engine beside a u16 one —
// at p = 1 (the lane count shows the quarters) and p = 2 (the pool
// shows the sub-chunks), with each engine's verdict that of one walk of
// D over a 64 KiB window.
func TestBoundedPassTakesEveryEagerEngine(t *testing.T) {
	// Every pattern but Content-Length's is bounded; Host's occurrences
	// are the longest, 47 bytes.
	text, _ := textgen.Traffic{SuspiciousPerMille: 30}.Generate(64<<10, 3)
	for _, p := range []int{1, 2} {
		pool := NewPool(2)
		tasks := func() int64 { st := pool.Stats(); return st.Submitted + st.Inline }
		sets := []struct {
			name   string
			pats   []int
			layout []TableLayout
		}{
			{"one u16", []int{0}, []TableLayout{LayoutU16}},
			{"u8", []int{3, 5, 8}, []TableLayout{LayoutU8, LayoutU8, LayoutU8}},
			{"i32 and u16", []int{2, 7}, []TableLayout{LayoutI32, LayoutU16}},
		}
		for _, set := range sets {
			var engines []ShardEngine
			var ms []*MultiSFA
			sel := make([]int, len(set.pats))
			for e, pi := range set.pats {
				m := lockstepEngine(t, lockstepPatterns[pi], p, WithLayout(set.layout[e]), WithPool(pool))
				if m.Layout() != set.layout[e] {
					t.Fatalf("%s: engine %d resolved to %s", set.name, e, m.Layout())
				}
				engines, ms, sel[e] = append(engines, m), append(ms, m), e
			}
			g := NewLockstep(engines)
			dsts := make([][]uint64, len(ms))
			for e := range dsts {
				dsts[e] = []uint64{0}
			}
			before := tasks()
			g.OrMasks(sel, text, 47, dsts)
			if ran := tasks() > before; ran != (p > 1) {
				t.Fatalf("p=%d %s: pool tasks ran %v", p, set.name, ran)
			}
			if q := quarteredEngines(g); q != len(ms) {
				t.Fatalf("p=%d %s: %d of %d engines walked as quarters", p, set.name, q, len(ms))
			}
			for e, m := range ms {
				if want := m.row(m.runDFA(text))[0]; dsts[e][0] != want {
					t.Fatalf("p=%d %s engine %d: OrMasks %x, one walk %x", p, set.name, e, dsts[e][0], want)
				}
				if tb, d := m.TableBytes(), int64(len(m.dtab))*2; tb != d {
					t.Fatalf("p=%d %s engine %d: TableBytes %d, want D's table %d", p, set.name, e, tb, d)
				}
			}
		}
	}
}

// TestLockstepAccounts pins who books what, at p = 1 and p = 2. The
// engines read no clock; a pass books every engine it ran: the engines
// of a shared walk the chunk, the bytes and an even share of the time —
// a lone u16 engine's ComposeChunks walk too, once — and a class-table
// engine, which falls back to its own call, the same for its own timed
// call. OrMasks books nothing — the caller counts and times its windows
// — and neither do direct engine calls.
func TestLockstepAccounts(t *testing.T) {
	for _, p := range []int{1, 2} {
		ms := []*MultiSFA{
			lockstepEngine(t, lockstepPatterns[0], p, WithLayout(LayoutU16)),
			lockstepEngine(t, lockstepPatterns[1], p, WithLayout(LayoutU16)),
			lockstepEngine(t, lockstepPatterns[2], p, WithLayout(LayoutU16)),
			lockstepEngine(t, lockstepPatterns[3], p, WithLayout(LayoutClass)),
		}
		g := NewLockstep([]ShardEngine{ms[0], ms[1], ms[2], ms[3]})
		text, _ := textgen.Traffic{}.Generate(64<<10, 1)
		bufs := [][]uint64{make([]uint64, 1), make([]uint64, 1), make([]uint64, 1), make([]uint64, 1)}
		curs, tmps := make([][]int16, len(ms)), make([][]int16, len(ms))
		for i, m := range ms {
			curs[i], tmps[i] = make([]int16, m.MappingLen()), make([]int16, m.MappingLen())
			m.InitMapping(curs[i])
			m.MatchMask(text, bufs[i])
			curs[i], tmps[i] = m.ComposeChunk(curs[i], tmps[i], text)
			if inf := m.Info(); inf.ComposeNs != 0 || inf.ScanChunks != 0 || inf.ScanBytes != 0 || inf.CandWindows != 0 {
				t.Fatalf("p=%d engine %d booked its own direct calls: %+v", p, i, inf)
			}
		}
		g.MatchMasks([]int{0, 2, 3}, text, bufs) // 0 and 2 walk together, 3 falls back
		if took := tookEngines(g); !slices.Equal(took, []int{0, 2}) {
			t.Fatalf("p=%d: MatchMasks took engines %v, want [0 2]", p, took)
		}
		g.ComposeChunks([]int{1}, curs, tmps, text) // 1 alone, in the pass
		if took := tookEngines(g); !slices.Equal(took, []int{1}) {
			t.Fatalf("p=%d: ComposeChunks took engines %v, want [1]", p, took)
		}
		g.OrMasks([]int{0, 1, 2}, text[:100], 100, bufs)
		for i, m := range ms {
			inf := m.Info()
			if inf.ScanChunks != 1 || inf.ScanBytes != int64(len(text)) || inf.CandWindows != 0 || inf.ComposeNs <= 0 {
				t.Fatalf("p=%d engine %d: account %+v", p, i, inf)
			}
		}
		if a, b := ms[0].Info().ComposeNs, ms[2].Info().ComposeNs; a != b {
			t.Fatalf("p=%d: shared walk split unevenly: %d vs %d ns", p, a, b)
		}
	}
}

func TestLockstepZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	for _, threads := range []int{1, 4} {
		var engines []ShardEngine
		for _, p := range lockstepPatterns[:5] {
			engines = append(engines, lockstepEngine(t, p, threads, WithLayout(LayoutU16)))
		}
		g := NewLockstep(engines)
		text, _ := textgen.Traffic{}.Generate(64<<10, 1)
		sel := []int{0, 1, 2, 3, 4}
		bufs, curs, tmps := make([][]uint64, 5), make([][]int16, 5), make([][]int16, 5)
		for i, e := range engines {
			m := e.(*MultiSFA)
			bufs[i] = make([]uint64, 1)
			curs[i], tmps[i] = make([]int16, m.MappingLen()), make([]int16, m.MappingLen())
			m.InitMapping(curs[i])
		}
		// Engine 1's rule is unbounded; the others' occurrences are at
		// most 47 bytes, so at p = 4 their 64 KiB window is split, and
		// three of them walk it as quarters.
		bounded, quartered := []int{0, 2, 3, 4}, []int{0, 2, 3}
		pass := func() {
			g.MatchMasks(sel, text, bufs)
			g.OrMasks(sel, text[:300], 300, bufs)
			g.OrMasks(bounded, text, 47, bufs)
			g.OrMasks(quartered, text, 47, bufs)
			g.ComposeChunks(sel, curs, tmps, text)
		}
		g.OrMasks(quartered, text, 47, bufs)
		if q := quarteredEngines(g); q != len(quartered) {
			t.Fatalf("p=%d: %d engines walked as quarters, want %d", threads, q, len(quartered))
		}
		pass() // warm the context pools
		if avg := testing.AllocsPerRun(20, pass); avg != 0 {
			t.Fatalf("p=%d: lock-step passes allocate %.1f/op in steady state, want 0", threads, avg)
		}
	}
}

// BenchmarkLockstepWalk_k* measure one lock-step pass of k engines over
// 4 MiB of traffic against k = 1 (a single walk): the per-byte cost of
// adding a shard to the pass, which is what chose lockstepWidth. k = 8
// is two 4-wide passes. The _quartered forms are the bounded pass
// (OrMasks at p = 1) of k engines with bounded occurrences, each walked
// as four overlapped quarters: k = 1 is one engine's four chains, k = 3
// the three shards a group of four leaves over when one has settled.
func benchLockstepWalk(b *testing.B, k int, quartered bool) {
	pats := lockstepPatterns[:k]
	if quartered {
		// Every pattern but Content-Length's has occurrences of at most
		// 47 bytes (Host's).
		pats = slices.Delete(slices.Clone(lockstepPatterns), 1, 2)[:k]
	}
	var engines []ShardEngine
	sel := make([]int, k)
	bufs := make([][]uint64, k)
	for i, p := range pats {
		engines = append(engines, lockstepEngine(b, p, 1, WithLayout(LayoutU16)))
		sel[i] = i
		bufs[i] = make([]uint64, 1)
	}
	g := NewLockstep(engines)
	text, _ := textgen.Traffic{}.Generate(4<<20, 1)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if quartered {
			g.OrMasks(sel, text, 47, bufs)
		} else {
			g.MatchMasks(sel, text, bufs)
		}
	}
}

func BenchmarkLockstepWalk_k1(b *testing.B)           { benchLockstepWalk(b, 1, false) }
func BenchmarkLockstepWalk_k1_quartered(b *testing.B) { benchLockstepWalk(b, 1, true) }
func BenchmarkLockstepWalk_k2(b *testing.B)           { benchLockstepWalk(b, 2, false) }
func BenchmarkLockstepWalk_k3(b *testing.B)           { benchLockstepWalk(b, 3, false) }
func BenchmarkLockstepWalk_k3_quartered(b *testing.B) { benchLockstepWalk(b, 3, true) }
func BenchmarkLockstepWalk_k4(b *testing.B)           { benchLockstepWalk(b, 4, false) }
func BenchmarkLockstepWalk_k8(b *testing.B)           { benchLockstepWalk(b, 8, false) }
