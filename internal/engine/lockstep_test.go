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
// 1…9 engines — all u16, or mixed with u8, i32, class-table and
// spawn-mode engines that must fall back — every subset selection gives
// exactly what k single MatchMask / OrMask / ComposeChunk calls give,
// at every thread count and for inputs on both sides of the sequential
// threshold.
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
	// The engines are search-bracketed, so no occurrence in the input is
	// longer than the input: a valid overlap at any length.
	g.OrMasks(sel, in, len(in), or)
	g.ComposeChunks(sel, curs, tmps, in)
	picked := make([]bool, k)
	for _, i := range sel {
		picked[i] = true
	}
	for i, m := range ms {
		if !picked[i] {
			if got[i][0] != 0xdead || or[i][0] != 2 || !slices.Equal(curs[i], wantCur[i]) {
				t.Fatalf("%s: engine %d is outside sel but was written", what, i)
			}
			continue
		}
		want := m.MatchMask(in, make([]uint64, 1))[0]
		if got[i][0] != want {
			t.Fatalf("%s: engine %d MatchMasks %x, single %x", what, i, got[i][0], want)
		}
		if or[i][0] != want|2 {
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

// TestOrMasksOverlapAgreesWithOneWalk is the overlapped split's
// contract. Bounded regen patterns, search-bracketed, are given
// occurrences with no shorter occurrence inside them; each is planted
// in text of a byte no pattern matches, at every offset across every
// sub-chunk cut, so it is the only occurrence there. For k ∈ {2, …, 5}
// engines, p ∈ {2, 4} and lengths around 4 KiB, OrMasks must give each
// engine the mask of one walk of D over the whole text, split from
// 4 KiB on. With the overlap the longest occurrence, a sub-chunk that
// re-walked one byte less would miss the occurrence ending at its cut;
// with the overlap the whole text, every back-up clamps at the start.
// No engine builds its D-SFA table or derives a mapping vector.
func TestOrMasksOverlapAgreesWithOneWalk(t *testing.T) {
	gen := regen.New(regen.Config{Alphabet: "abc", AllowClasses: true, AllowCounts: true}, 41)
	var pats []string
	var occs [][]byte
	for len(pats) < 5 {
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
	longest := 0
	for _, w := range occs {
		longest = max(longest, len(w))
	}
	verdicts := [2]int{}
	for _, p := range []int{2, 4} {
		pool := NewPool(2)
		tasks := func() int64 { st := pool.Stats(); return st.Submitted + st.Inline }
		ms := make([]*MultiSFA, len(pats))
		engines := make([]ShardEngine, len(pats))
		for i, pat := range pats {
			ms[i] = lockstepEngine(t, pat, p, WithLayout(LayoutU16), WithPool(pool))
			engines[i] = ms[i]
		}
		g := NewLockstep(engines)
		for _, n := range []int{streamSequentialMax - 1, streamSequentialMax, streamSequentialMax + 1, 10007} {
			split := n >= streamSequentialMax
			for j, w := range occs {
				for i := 1; i < p; i++ {
					cut, _ := span(n, p, i)
					for at := cut - len(w); at <= cut; at++ {
						text := bytes.Repeat([]byte{'x'}, n)
						copy(text[at:], w)
						for _, overlap := range []int{longest, n} {
							for k := max(2, j+1); k <= len(ms); k++ {
								sel := make([]int, k)
								dsts := make([][]uint64, len(ms))
								for e := range sel {
									sel[e] = e
									dsts[e] = []uint64{0}
								}
								before := tasks()
								g.OrMasks(sel, text, overlap, dsts)
								if ran := tasks() > before; ran != split {
									t.Fatalf("p=%d len=%d overlap=%d: split %v, want %v", p, n, overlap, ran, split)
								}
								for e, m := range ms[:k] {
									want := m.row(m.runDFA(text))[0]
									if dsts[e][0] != want {
										t.Fatalf("p=%d k=%d len=%d overlap=%d: %q planted at %d (cut %d), engine %d (%q): OrMasks %x, one walk %x",
											p, k, n, overlap, w, at, cut, e, pats[e], dsts[e][0], want)
									}
									verdicts[want]++
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

// TestLockstepAccounts pins who books what. The engines read no clock;
// a pass books every engine it ran: the engines of a shared walk the
// chunk, the bytes and an even share of the time, an engine that fell
// back to its own call (the class-table one, or the only eligible engine
// of a selection) the same for its own timed call. OrMasks books nothing
// — the caller counts and times its windows — and neither do direct
// engine calls.
func TestLockstepAccounts(t *testing.T) {
	ms := []*MultiSFA{
		lockstepEngine(t, lockstepPatterns[0], 1, WithLayout(LayoutU16)),
		lockstepEngine(t, lockstepPatterns[1], 1, WithLayout(LayoutU16)),
		lockstepEngine(t, lockstepPatterns[2], 1, WithLayout(LayoutU16)),
		lockstepEngine(t, lockstepPatterns[3], 1, WithLayout(LayoutClass)),
	}
	g := NewLockstep([]ShardEngine{ms[0], ms[1], ms[2], ms[3]})
	text, _ := textgen.Traffic{}.Generate(64<<10, 1)
	bufs := [][]uint64{make([]uint64, 1), make([]uint64, 1), make([]uint64, 1), make([]uint64, 1)}
	curs, tmps := make([][]int16, len(ms)), make([][]int16, len(ms))
	for i, m := range ms {
		curs[i], tmps[i] = make([]int16, m.MappingLen()), make([]int16, m.MappingLen())
		m.InitMapping(curs[i])
		m.MatchMask(text, bufs[i])
		m.OrMask(text, bufs[i])
		curs[i], tmps[i] = m.ComposeChunk(curs[i], tmps[i], text)
		if inf := m.Info(); inf.ComposeNs != 0 || inf.ScanChunks != 0 || inf.ScanBytes != 0 || inf.CandWindows != 0 {
			t.Fatalf("engine %d booked its own direct calls: %+v", i, inf)
		}
	}
	g.MatchMasks([]int{0, 2, 3}, text, bufs)    // 0 and 2 walk together, 3 falls back
	g.ComposeChunks([]int{1}, curs, tmps, text) // 1 alone: its own call
	g.OrMasks([]int{0, 1, 2, 3}, text[:100], 100, bufs)
	for i, m := range ms {
		inf := m.Info()
		if inf.ScanChunks != 1 || inf.ScanBytes != int64(len(text)) || inf.CandWindows != 0 || inf.ComposeNs <= 0 {
			t.Fatalf("engine %d: account %+v", i, inf)
		}
	}
	if a, b := ms[0].Info().ComposeNs, ms[2].Info().ComposeNs; a != b {
		t.Fatalf("shared walk split unevenly: %d vs %d ns", a, b)
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
		// most 47 bytes, so at p = 4 their 64 KiB window is split.
		bounded := []int{0, 2, 3, 4}
		pass := func() {
			g.MatchMasks(sel, text, bufs)
			g.OrMasks(sel, text[:300], 300, bufs)
			g.OrMasks(bounded, text, 47, bufs)
			g.ComposeChunks(sel, curs, tmps, text)
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
// is two 4-wide passes.
func benchLockstepWalk(b *testing.B, k int) {
	var engines []ShardEngine
	sel := make([]int, k)
	bufs := make([][]uint64, k)
	for i := 0; i < k; i++ {
		engines = append(engines, lockstepEngine(b, lockstepPatterns[i], 1, WithLayout(LayoutU16)))
		sel[i] = i
		bufs[i] = make([]uint64, 1)
	}
	g := NewLockstep(engines)
	text, _ := textgen.Traffic{}.Generate(4<<20, 1)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.MatchMasks(sel, text, bufs)
	}
}

func BenchmarkLockstepWalk_k1(b *testing.B) { benchLockstepWalk(b, 1) }
func BenchmarkLockstepWalk_k2(b *testing.B) { benchLockstepWalk(b, 2) }
func BenchmarkLockstepWalk_k3(b *testing.B) { benchLockstepWalk(b, 3) }
func BenchmarkLockstepWalk_k4(b *testing.B) { benchLockstepWalk(b, 4) }
func BenchmarkLockstepWalk_k8(b *testing.B) { benchLockstepWalk(b, 8) }
