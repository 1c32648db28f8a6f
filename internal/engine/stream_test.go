package engine

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/dfa"
	"repro/internal/textgen"
)

// advance is the carried-mapping protocol as a test helper: feed chunks
// through ComposeChunk, return the final mapping.
func advance(m *MultiSFA, chunks [][]byte) []int16 {
	cur := make([]int16, m.MappingLen())
	tmp := make([]int16, m.MappingLen())
	m.InitMapping(cur)
	for _, c := range chunks {
		cur, tmp = m.ComposeChunk(cur, tmp, c)
	}
	return cur
}

// TestComposeChunkAgreesWithMatchMask: any chunking of the input must
// produce exactly the one-shot mask (Theorem 3 at the engine level),
// including chunk sizes below and above the sequential threshold, empty
// chunks, and both dispatch modes.
func TestComposeChunkAgreesWithMatchMask(t *testing.T) {
	text := textgen.RnText(2, 3*streamSequentialMax, 7)
	inputs := [][]byte{nil, []byte("0459"), text[:streamSequentialMax-1], text}
	for _, threads := range []int{1, 2, 4} {
		for _, spawn := range []bool{false, true} {
			var opts []Option
			if spawn {
				opts = append(opts, WithSpawn())
			}
			m, _ := multiFixture(t, threads, opts...)
			for _, in := range inputs {
				want := m.MatchMask(in, make([]uint64, 1))[0]
				for _, split := range []int{1, 3, streamSequentialMax + 1} {
					var chunks [][]byte
					chunks = append(chunks, nil) // leading empty write
					for off := 0; off < len(in); off += split {
						end := min(off+split, len(in))
						chunks = append(chunks, in[off:end])
					}
					cur := advance(m, chunks)
					got := m.MatchMaskFrom(cur, make([]uint64, 1))[0]
					if got != want {
						t.Fatalf("p=%d spawn=%v len=%d split=%d: mask %x, want %x",
							threads, spawn, len(in), split, got, want)
					}
				}
			}
		}
	}
}

// TestComposeMaskMergesSegments: scanning two segments independently and
// folding with ComposeMask must equal scanning the concatenation.
func TestComposeMaskMergesSegments(t *testing.T) {
	m, _ := multiFixture(t, 2)
	text := textgen.RnText(2, 40_000, 9)
	cut := len(text)/2 + 1
	a := advance(m, [][]byte{text[:cut]})
	b := advance(m, [][]byte{text[cut:]})
	h := make([]int16, m.MappingLen())
	m.ComposeMask(h, a, b)

	whole := advance(m, [][]byte{text})
	if !bytes.Equal(int16Bytes(h), int16Bytes(whole)) {
		t.Fatal("composed mapping differs from whole-input mapping")
	}
}

func int16Bytes(v []int16) []byte {
	out := make([]byte, 2*len(v))
	for i, x := range v {
		out[2*i], out[2*i+1] = byte(x), byte(x>>8)
	}
	return out
}

// TestSFAParallelComposeChunkAgreesWithMatch is the single-pattern
// equivalent: the carried mapping's verdict must match one-shot Match for
// any chunking.
func TestSFAParallelComposeChunkAgreesWithMatch(t *testing.T) {
	d := dfa.MustCompilePattern("([0-4]{2}[5-9]{2})*")
	s, err := core.BuildDSFA(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	text := textgen.RnText(2, 3*streamSequentialMax, 5)
	for _, threads := range []int{1, 4} {
		m := NewSFAParallel(s, threads, ReduceSequential)
		for _, in := range [][]byte{nil, []byte("0459"), text[:99], text} {
			want := m.Match(in)
			cur := make([]int16, m.MappingLen())
			tmp := make([]int16, m.MappingLen())
			m.InitMapping(cur)
			for off := 0; off < len(in); off += 777 {
				end := min(off+777, len(in))
				cur, tmp = m.ComposeChunk(cur, tmp, in[off:end])
			}
			if got := m.AcceptedFrom(cur); got != want {
				t.Fatalf("p=%d len=%d: streamed %v, one-shot %v", threads, len(in), got, want)
			}
		}
	}
}

// TestComposeChunkZeroAllocSteadyState is the streaming hot-path
// guardrail: once the context pool is warm, advancing a carried mapping
// by a chunk must not allocate — for either engine, at any chunk size.
func TestComposeChunkZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; allocs/op is only meaningful without -race")
	}
	big := textgen.RnText(2, 64<<10, 3)
	small := big[:256]

	m, _ := multiFixture(t, 4)
	cur := make([]int16, m.MappingLen())
	tmp := make([]int16, m.MappingLen())
	m.InitMapping(cur)
	dst := make([]uint64, m.Words())
	for i := 0; i < 10; i++ {
		cur, tmp = m.ComposeChunk(cur, tmp, big)
	}
	for name, chunk := range map[string][]byte{"parallel": big, "sequential": small} {
		avg := testing.AllocsPerRun(100, func() {
			cur, tmp = m.ComposeChunk(cur, tmp, chunk)
			m.MatchMaskFrom(cur, dst)
		})
		if avg >= 0.5 {
			t.Errorf("MultiSFA %s chunk: %.2f allocs/op in steady state", name, avg)
		}
	}

	d := dfa.MustCompilePattern("([0-4]{2}[5-9]{2})*")
	s, err := core.BuildDSFA(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := NewSFAParallel(s, 4, ReduceSequential)
	scur := make([]int16, e.MappingLen())
	stmp := make([]int16, e.MappingLen())
	e.InitMapping(scur)
	for i := 0; i < 10; i++ {
		scur, stmp = e.ComposeChunk(scur, stmp, big)
	}
	if avg := testing.AllocsPerRun(100, func() {
		scur, stmp = e.ComposeChunk(scur, stmp, big)
		e.AcceptedFrom(scur)
	}); avg >= 0.5 {
		t.Errorf("one-rule chunk: %.2f allocs/op in steady state", avg)
	}
}

// TestBuildIDUnique: construction ids distinguish engines, the handle the
// hot-reload tests use to prove shard reuse.
func TestBuildIDUnique(t *testing.T) {
	a, _ := multiFixture(t, 1)
	b, _ := multiFixture(t, 1)
	if a.BuildID() == b.BuildID() {
		t.Fatalf("two engines share build id %d", a.BuildID())
	}
	if a.BuildID() == 0 || b.BuildID() == 0 {
		t.Fatal("build id 0 is reserved for 'never built'")
	}
}
