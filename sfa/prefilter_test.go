package sfa

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// prefilterDefs is a mixed rule set that exercises every prefilter shard
// mode at once: windowable literal rules (one case-insensitive), a
// begin-anchored prefix rule, a gate rule (internal unbounded
// repetition), and a pathological rule extraction cannot cover — which
// must degrade to full scans, never be dropped.
func prefilterDefs() []RuleDef {
	return []RuleDef{
		{Name: "lit", Pattern: `needle`},
		{Name: "fold", Pattern: `SeCrEt`, Flags: FoldCase},
		{Name: "alt", Pattern: `(attack|exploit)-[0-9]{1,4}`},
		{Name: "anchored", Pattern: `^HDR/[0-9]{2}`},
		{Name: "gate", Pattern: `begin[0-9]{3,}end`},
		{Name: "uncovered", Pattern: `[a-p]{10}`},
		{Name: "nop", Pattern: `\x90{4,16}`},
	}
}

// prefilterInputs builds inputs that hit every rule, straddle
// boundaries, and include plenty of matching-nothing filler.
func prefilterInputs() [][]byte {
	inputs := [][]byte{
		nil,
		[]byte("no candidates here at all ......"),
		[]byte("a needle in plain sight"),
		[]byte("SECRET and secret and sEcReT"),
		[]byte("attack-007 and exploit-1234"),
		[]byte("HDR/42 starts the input"),
		[]byte("not at start: HDR/42"),
		[]byte("begin12345end"),
		[]byte("begin12end"), // too few digits: gate fires, no match
		[]byte("abcdefghij"), // uncovered rule matches
		[]byte("\x90\x90\x90\x90\x90"),
		bytes.Repeat([]byte("x"), 1<<12),
	}
	r := rand.New(rand.NewSource(23))
	frags := []string{"needle", "secret", "exploit-9", "begin777end", "HDR/11", "\x90\x90\x90\x90"}
	for i := 0; i < 32; i++ {
		in := make([]byte, 64+r.Intn(512))
		for j := range in {
			in[j] = byte(' ' + r.Intn(95))
		}
		for k := r.Intn(3); k > 0; k-- {
			f := frags[r.Intn(len(frags))]
			copy(in[r.Intn(len(in)-len(f)+1):], f)
		}
		inputs = append(inputs, in)
	}
	return inputs
}

// TestPrefilterOracle is the A/B contract: for every input, the
// prefiltered set and the WithoutPrefilter set produce identical
// verdicts — one-shot, streamed at adversarial chunk sizes, and via
// Compose of independently scanned halves.
func TestPrefilterOracle(t *testing.T) {
	defs := prefilterDefs()
	pre, err := NewRuleSetFromDefs(defs, WithSearch(), WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	off, err := NewRuleSetFromDefs(defs, WithSearch(), WithThreads(1), WithoutPrefilter())
	if err != nil {
		t.Fatal(err)
	}
	pf := pre.PrefilterStats()
	if !pf.Enabled {
		t.Fatal("prefilter not armed on default build")
	}
	if pf.WindowShards == 0 || pf.PrefixShards == 0 || pf.FullShards == 0 {
		t.Fatalf("test set should produce window, prefix, and full shards; got %+v", pf)
	}
	if off.PrefilterStats().Enabled {
		t.Fatal("WithoutPrefilter still armed a prefilter")
	}

	for _, in := range prefilterInputs() {
		want := off.Scan(in, 0)
		if got := pre.Scan(in, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("one-shot diverged on %q: %v vs %v", in, got, want)
		}
		for _, chunk := range []int{1, 3, 7, 64, 1 << 20} {
			st, err := pre.NewStream()
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < len(in); p += chunk {
				end := p + chunk
				if end > len(in) {
					end = len(in)
				}
				st.Write(in[p:end])
			}
			if got := st.Matches(); !reflect.DeepEqual(got, want) {
				t.Fatalf("stream(chunk=%d) diverged on %q: %v vs %v", chunk, in, got, want)
			}
		}
		// Compose: scan the two halves as independent streams, fold.
		a, _ := pre.NewStream()
		b, _ := pre.NewStream()
		a.Write(in[:len(in)/2])
		b.Write(in[len(in)/2:])
		if err := a.Compose(b); err != nil {
			t.Fatal(err)
		}
		if got := a.Matches(); !reflect.DeepEqual(got, want) {
			t.Fatalf("compose diverged on %q: %v vs %v", in, got, want)
		}
	}
}

// TestPrefilterLiteralAtChunkBoundary splits the input at every offset
// through a planted literal: the straddle-carry logic must find the
// occurrence no matter where the Write boundary bisects it.
func TestPrefilterLiteralAtChunkBoundary(t *testing.T) {
	defs := prefilterDefs()
	rs, err := NewRuleSetFromDefs(defs, WithSearch(), WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("................needle......SeCrEt....")
	want := rs.Scan(in, 0)
	if len(want) == 0 {
		t.Fatal("planted literals did not match")
	}
	for split := 1; split < len(in); split++ {
		st, err := rs.NewStream()
		if err != nil {
			t.Fatal(err)
		}
		st.Write(in[:split])
		st.Write(in[split:])
		if got := st.Matches(); !reflect.DeepEqual(got, want) {
			t.Fatalf("split %d: %v, want %v", split, got, want)
		}
	}
}

// TestPrefilterAnchoredStreaming drives the prefix-mode shard through
// byte-at-a-time writes: the verdict must settle exactly as the decisive
// prefix streams in, and never regress afterwards.
func TestPrefilterAnchoredStreaming(t *testing.T) {
	rs, err := NewRuleSetFromDefs(prefilterDefs(), WithSearch(), WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	in := append([]byte("HDR/77 "), bytes.Repeat([]byte("z"), 300)...)
	st, err := rs.NewStream()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint64, rs.MaskWords())
	for i := range in {
		st.Write(in[i : i+1])
		names := rs.MaskNames(st.Mask(buf))
		matched := false
		for _, n := range names {
			if n == "anchored" {
				matched = true
			}
		}
		if want := i+1 >= len("HDR/77"); matched != want {
			t.Fatalf("after %d bytes: anchored matched=%v, want %v", i+1, matched, want)
		}
	}
}

// TestPrefilterUncoveredRuleStillMatches is the degradation regression:
// a rule whose extraction fails (wide classes, no required literal)
// must scan in full and keep matching inside an otherwise prefiltered
// set.
func TestPrefilterUncoveredRuleStillMatches(t *testing.T) {
	rs, err := NewRuleSetFromDefs(prefilterDefs(), WithSearch(), WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	pf := rs.PrefilterStats()
	if pf.RulesUncovered == 0 {
		t.Fatalf("expected an uncovered rule in the fixture; got %+v", pf)
	}
	in := []byte("........abcdefghij........") // matches only [a-p]{10}
	got := rs.Scan(in, 0)
	if !reflect.DeepEqual(got, []string{"uncovered"}) {
		t.Fatalf("uncovered rule verdict = %v, want [uncovered]", got)
	}
	// And streamed, where full shards use the carried-mapping protocol.
	st, _ := rs.NewStream()
	for p := 0; p < len(in); p += 5 {
		end := p + 5
		if end > len(in) {
			end = len(in)
		}
		st.Write(in[p:end])
	}
	if got := st.Matches(); !reflect.DeepEqual(got, []string{"uncovered"}) {
		t.Fatalf("streamed uncovered verdict = %v", got)
	}
}

// FuzzPrefilter feeds arbitrary payloads and split points through the
// prefiltered and unfiltered sets: one-shot masks, streamed masks (split
// bisecting whatever the fuzzer chooses, including literals) and the
// mask of the two halves composed must agree bit for bit. Two pairs run:
// the eager set of every shard mode, and a lazily compiled gap-rule set
// whose prefiltered side verifies candidate windows per rule while its
// unfiltered side walks the lazy tuple D-SFA.
func FuzzPrefilter(f *testing.F) {
	type pair struct {
		name     string
		pre, off *RuleSet
	}
	var pairs []pair
	for _, c := range []struct {
		name string
		defs []RuleDef
		opts []Option
	}{
		{"eager", prefilterDefs(), nil},
		{"lazy", lazyWindowDefs(6), []Option{WithLazyCompile(), WithShardStateBudget(256)}},
	} {
		opts := append([]Option{WithSearch(), WithThreads(1)}, c.opts...)
		pre, err := NewRuleSetFromDefs(c.defs, opts...)
		if err != nil {
			f.Fatal(err)
		}
		off, err := NewRuleSetFromDefs(c.defs, append(opts, WithoutPrefilter())...)
		if err != nil {
			f.Fatal(err)
		}
		pairs = append(pairs, pair{c.name, pre, off})
	}
	f.Add([]byte("a needle in HDR/12 begin123end"), uint16(9))
	f.Add([]byte("SeCrEtSeCrEt\x90\x90\x90\x90\x90"), uint16(3))
	f.Add([]byte("exploit-42abcdefghij"), uint16(8))
	f.Add([]byte("q00abcdefghz00q01z07 abcdefgy2x1"), uint16(2))
	f.Add([]byte("kkabclmnop kk lmn q05q05abcdefghijklmz23"), uint16(13))
	f.Add([]byte("q03q04q03abz15abcdz1cabcdabcdx1y2"), uint16(20))
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		s := 0
		if len(data) > 0 {
			s = int(split) % (len(data) + 1)
		}
		for _, p := range pairs {
			wbuf := make([]uint64, p.off.MaskWords())
			pbuf := make([]uint64, p.pre.MaskWords())
			want := append([]uint64(nil), p.off.MatchMask(data, wbuf)...)
			if got := p.pre.MatchMask(data, pbuf); !reflect.DeepEqual([]uint64(got), want) {
				t.Fatalf("%s: one-shot mask diverged: %x vs %x on %q", p.name, got, want, data)
			}
			st, err := p.pre.NewStream()
			if err != nil {
				t.Fatal(err)
			}
			st.Write(data[:s])
			st.Write(data[s:])
			if got := st.Mask(pbuf); !reflect.DeepEqual([]uint64(got), want) {
				t.Fatalf("%s: streamed mask diverged at split %d: %x vs %x on %q", p.name, s, got, want, data)
			}
			head, err := p.pre.NewStream()
			if err != nil {
				t.Fatal(err)
			}
			tail, err := p.pre.NewStream()
			if err != nil {
				t.Fatal(err)
			}
			head.Write(data[:s])
			for i := s; i < len(data); i++ {
				tail.Write(data[i : i+1])
			}
			if err := head.Compose(tail); err != nil {
				t.Fatal(err)
			}
			if got := head.Mask(pbuf); !reflect.DeepEqual([]uint64(got), want) {
				t.Fatalf("%s: composed mask diverged at split %d: %x vs %x on %q", p.name, s, got, want, data)
			}
		}
	})
}
