package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dfa"
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
					opts = [][]Option{nil, {WithLayout(LayoutI32)}, nil, nil, {WithClassTable()}, nil, {WithSpawn()}}[i%7]
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
	g.OrMasks(sel, in, or)
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
		lockstepEngine(t, lockstepPatterns[3], 1, WithClassTable()),
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
	g.OrMasks([]int{0, 1, 2, 3}, text[:100], bufs)
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
		pass := func() {
			g.MatchMasks(sel, text, bufs)
			g.OrMasks(sel, text[:300], bufs)
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
