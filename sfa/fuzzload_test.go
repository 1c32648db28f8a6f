package sfa

import (
	"bytes"
	"testing"
)

// fuzzSnapshot builds a small valid snapshot for the seed corpus.
func fuzzSnapshot(tb testing.TB, defs []RuleDef) []byte {
	rs, err := NewRuleSetFromDefs(defs, WithSearch(), WithThreads(2))
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadRuleSet hammers the snapshot decoder with arbitrary bytes:
// it must return an error or a fully working rule set — never panic,
// and never allocate beyond what the input's actual size justifies
// (binio.Append grows with the stream; engine tables are only
// materialized after the CRCs hold; TestLoadRuleSetReaderShapes asserts
// the bound for a frame that lies about its length). Runs in CI via
// `make fuzz-smoke`.
func FuzzLoadRuleSet(f *testing.F) {
	valid := fuzzSnapshot(f, []RuleDef{
		{Name: "a", Pattern: `(ab)*c?`},
		{Name: "b", Pattern: `[0-9]{2,4}`, Flags: FoldCase},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:9])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add([]byte("SFA\x01RST\x01"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		rs, err := LoadRuleSet(bytes.NewReader(data), WithThreads(2))
		if err != nil {
			return
		}
		// The (astronomically rare without the seed) valid case must be a
		// usable matcher: exercise the zero-alloc hot path and the name
		// decoding so a half-validated set cannot slip through quietly.
		dst := make([]uint64, rs.MaskWords())
		rs.MaskNames(rs.MatchMask([]byte("probe 123 abab"), dst))
		if rs.Len() <= 0 || rs.NumShards() <= 0 {
			t.Fatalf("loaded set reports %d rules in %d shards", rs.Len(), rs.NumShards())
		}
	})
}
