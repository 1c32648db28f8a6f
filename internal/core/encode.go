package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/binio"
	"repro/internal/dfa"
)

// Binary serialization of D-SFAs. The D-SFA is the expensive artifact of
// the pipeline (Table III: ~seconds for 10⁴–10⁶ states), so deployments
// serialize it together with its underlying DFA and load both at start.

const dsfaMagic = "SFA\x01SFA\x01"

// sfaHeaderLen is the fixed front of the D-SFA section: the magic and
// three u32 fields (states, start, empty id).
const sfaHeaderLen = len(dsfaMagic) + 12

// EncodedLen is the size of s's encoding, its DFA's included.
func (s *DSFA) EncodedLen() int {
	return s.D.EncodedLen() + sfaHeaderLen + (s.NumStates+7)/8 + 4*len(s.NextC) + 2*s.NumStates*s.n
}

// WriteTo serializes the D-SFA (including its underlying DFA).
func (s *DSFA) WriteTo(w io.Writer) (int64, error) {
	bw := binio.NewWriter(w)
	start := bw.Count()
	s.Encode(bw)
	err := bw.Flush()
	return bw.Count() - start, err
}

// Encode writes s's encoding, its DFA's first, to w. It derives the
// mapping vectors if they are not resident, and keeps them.
func (s *DSFA) Encode(w *binio.Writer) {
	s.D.Encode(w)
	w.WriteString(dsfaMagic)
	w.Uint32(uint32(s.NumStates))
	w.Uint32(uint32(s.Start))
	w.Uint32(uint32(s.EmptyID))
	w.Bits(s.Accept)
	w.Int32s(s.NextC)
	w.Int16s(s.vectors().maps)
}

// DecodeDSFA parses a D-SFA encoding that fills b exactly. It is the
// format's one parser — ReadDSFA only frames a stream for it — and
// validates state counts, transition targets and mapping values, and
// that the start state's vector is the identity. The decoded vectors stay
// resident. The StateOf vector-lookup index is NOT rebuilt here: matching
// never consults it, so a warm snapshot load skips hashing every mapping
// vector and the index materializes lazily on the first StateOf call.
func DecodeDSFA(b []byte) (*DSFA, error) {
	d, n, err := dfa.Decode(b)
	if err != nil {
		return nil, err
	}
	return decodeSection(d, b[n:])
}

// sectionLen validates the D-SFA header at the front of b, over DFA d,
// and returns the size of the section it announces.
func sectionLen(d *dfa.DFA, b []byte) (int, error) {
	if len(b) < sfaHeaderLen {
		return 0, fmt.Errorf("core: reading header: %w", io.ErrUnexpectedEOF)
	}
	if string(b[:len(dsfaMagic)]) != dsfaMagic {
		return 0, fmt.Errorf("core: bad magic %q", b[:len(dsfaMagic)])
	}
	ns := int(binary.LittleEndian.Uint32(b[len(dsfaMagic):]))
	if ns <= 0 || ns > 1<<28 {
		return 0, fmt.Errorf("core: implausible state count %d", ns)
	}
	return sfaHeaderLen + (ns+7)/8 + 4*ns*d.BC.Count + 2*ns*d.NumStates, nil
}

// decodeSection parses the D-SFA section over d that fills b exactly.
func decodeSection(d *dfa.DFA, b []byte) (*DSFA, error) {
	size, err := sectionLen(d, b)
	if err != nil {
		return nil, err
	}
	switch {
	case len(b) < size:
		return nil, fmt.Errorf("core: reading tables (%d of %d bytes): %w", len(b), size, io.ErrUnexpectedEOF)
	case len(b) > size:
		return nil, fmt.Errorf("core: %d trailing bytes after automaton", len(b)-size)
	}
	h := b[len(dsfaMagic):]
	s := &DSFA{
		D:         d,
		NumStates: int(binary.LittleEndian.Uint32(h[0:])),
		Start:     int32(binary.LittleEndian.Uint32(h[4:])),
		EmptyID:   int32(binary.LittleEndian.Uint32(h[8:])),
		n:         d.NumStates,
	}
	if uint32(s.Start) >= uint32(s.NumStates) {
		return nil, fmt.Errorf("core: start %d out of range", s.Start)
	}
	b = b[sfaHeaderLen:]
	na, nt := (s.NumStates+7)/8, 4*s.NumStates*d.BC.Count
	s.Accept = make([]bool, s.NumStates)
	binio.UnpackBits(s.Accept, b[:na])
	s.NextC = make([]int32, s.NumStates*d.BC.Count)
	if i := binio.DecodeInt32s(s.NextC, b[na:na+nt], uint32(s.NumStates)); i >= 0 {
		return nil, fmt.Errorf("core: transition target %d out of range", int32(binary.LittleEndian.Uint32(b[na+4*i:])))
	}
	// A mapping value is a DFA state id; ids are int16, so the bound is
	// also below 1<<15.
	maps := make([]int16, s.NumStates*s.n)
	if i := binio.DecodeInt16s(maps, b[na+nt:], uint16(min(d.NumStates, 1<<15))); i >= 0 {
		return nil, fmt.Errorf("core: mapping value %d out of range", int16(binary.LittleEndian.Uint16(b[na+nt+2*i:])))
	}
	for q, f := range maps[int(s.Start)*s.n : (int(s.Start)+1)*s.n] {
		if int(f) != q {
			return nil, fmt.Errorf("core: start state %d maps DFA state %d to %d, not the identity", s.Start, q, f)
		}
	}
	s.vecs.Store(&vectors{maps: maps, n: s.n})
	return s, nil
}

// ReadDSFA reads one D-SFA encoding from r — exactly its bytes — and
// decodes it with DecodeDSFA's parser.
func ReadDSFA(r io.Reader) (*DSFA, error) {
	d, err := dfa.ReadDFA(r)
	if err != nil {
		return nil, err
	}
	b, err := binio.ReadExact(r, sfaHeaderLen)
	if err != nil {
		return nil, fmt.Errorf("core: reading header: %w", err)
	}
	size, err := sectionLen(d, b)
	if err != nil {
		return nil, err
	}
	if b, err = binio.Append(r, b, size-len(b)); err != nil {
		return nil, fmt.Errorf("core: reading tables: %w", err)
	}
	return decodeSection(d, b)
}

// Per-state accept-bitmask tables (the multi-pattern engines' per-rule
// verdict storage: one row of `words` uint64 words per combined-DFA
// state). Serialized little-endian with a varint length prefix so the
// rule-set codec in internal/multi can frame them.

// MaskTableLen is the size of a mask table's encoding.
func MaskTableLen(masks []uint64) int {
	return binio.UvarintLen(uint64(len(masks))) + 8*len(masks)
}

// EncodeMaskTable writes a mask table of any stride.
func EncodeMaskTable(w *binio.Writer, masks []uint64) {
	w.Uvarint(uint64(len(masks)))
	w.Uint64s(masks)
}

// DecodeMaskTable parses a mask table that fills b exactly and validates
// its shape: exactly states×words entries, and in every row no bit at or
// above ruleBits set (mask rows describe ruleBits rules; stray high bits
// mean corruption).
func DecodeMaskTable(b []byte, states, words, ruleBits int) ([]uint64, error) {
	if words <= 0 {
		return nil, fmt.Errorf("core: mask table of %d words per state", words)
	}
	c := binio.NewCursor(b)
	n, err := c.Count(uint64(states)*uint64(words), "mask table")
	if err != nil {
		return nil, err
	}
	if n != states*words {
		return nil, fmt.Errorf("core: mask table %d entries, want %d states × %d words", n, states, words)
	}
	src, err := c.Next(8*n, "mask table")
	if err != nil {
		return nil, err
	}
	if c.Len() != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after mask table", c.Len())
	}
	allowed := make([]uint64, words)
	for wi := range allowed {
		lo := wi * 64
		switch {
		case ruleBits >= lo+64:
			allowed[wi] = ^uint64(0)
		case ruleBits > lo:
			allowed[wi] = (uint64(1) << (ruleBits - lo)) - 1
		}
	}
	masks := make([]uint64, n)
	for i := 0; i < n; i += words {
		row, rsrc := masks[i:i+words], src[8*i:8*(i+words)]
		for wi, a := range allowed {
			m := binary.LittleEndian.Uint64(rsrc[8*wi:])
			if m&^a != 0 {
				return nil, fmt.Errorf("core: mask table state %d has bits beyond %d rules", i/words, ruleBits)
			}
			row[wi] = m
		}
	}
	return masks, nil
}
