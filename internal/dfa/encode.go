package dfa

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/binio"
	"repro/internal/nfa"
)

// Binary serialization of compiled DFAs. Table III shows that automaton
// construction — not matching — dominates start-up for large patterns, so
// production deployments compile once and load the tables at start;
// this codec provides that. The format is little-endian, versioned, and
// validated on load.

const dfaMagic = "SFA\x01DFA\x01"

// headerLen is the fixed front of an encoding: the magic, four u32
// fields (states, start, dead, classes) and the 256-byte class map.
const headerLen = len(dfaMagic) + 16 + 256

// EncodedLen is the size of d's encoding.
func (d *DFA) EncodedLen() int { return headerLen + (d.NumStates+7)/8 + 4*len(d.NextC) }

// WriteTo serializes the DFA.
func (d *DFA) WriteTo(w io.Writer) (int64, error) {
	bw := binio.NewWriter(w)
	start := bw.Count()
	d.Encode(bw)
	err := bw.Flush()
	return bw.Count() - start, err
}

// Encode writes d's encoding to w.
func (d *DFA) Encode(w *binio.Writer) {
	w.WriteString(dfaMagic)
	w.Uint32(uint32(d.NumStates))
	w.Uint32(uint32(d.Start))
	w.Uint32(uint32(d.Dead))
	w.Uint32(uint32(d.BC.Count))
	w.Write(d.BC.Of[:])
	w.Bits(d.Accept)
	w.Int32s(d.NextC)
}

// encodedLen validates the fixed header at the front of b and returns the
// size of the whole encoding it announces.
func encodedLen(b []byte) (int, error) {
	if len(b) < headerLen {
		return 0, fmt.Errorf("dfa: reading header: %w", io.ErrUnexpectedEOF)
	}
	if string(b[:len(dfaMagic)]) != dfaMagic {
		return 0, fmt.Errorf("dfa: bad magic %q", b[:len(dfaMagic)])
	}
	numStates := int(binary.LittleEndian.Uint32(b[len(dfaMagic):]))
	classes := int(binary.LittleEndian.Uint32(b[len(dfaMagic)+12:]))
	if numStates <= 0 || numStates > 1<<28 || classes <= 0 || classes > 256 {
		return 0, fmt.Errorf("dfa: implausible header (states %d, classes %d)", numStates, classes)
	}
	return headerLen + (numStates+7)/8 + 4*numStates*classes, nil
}

// Decode parses the DFA encoded at the front of b and returns it with the
// number of bytes it occupies. It is the format's one parser — ReadDFA
// only frames a stream for it — and validates everything: the class map,
// the start and dead states, and every transition target.
func Decode(b []byte) (*DFA, int, error) {
	size, err := encodedLen(b)
	if err != nil {
		return nil, 0, err
	}
	if len(b) < size {
		return nil, 0, fmt.Errorf("dfa: reading tables (%d of %d bytes): %w", len(b), size, io.ErrUnexpectedEOF)
	}
	h := b[len(dfaMagic):]
	numStates := int(binary.LittleEndian.Uint32(h[0:]))
	start := binary.LittleEndian.Uint32(h[4:])
	dead := int32(binary.LittleEndian.Uint32(h[8:]))
	classes := int(binary.LittleEndian.Uint32(h[12:]))
	if start >= uint32(numStates) {
		return nil, 0, fmt.Errorf("dfa: start %d out of range", start)
	}
	if dead != NoDead && uint32(dead) >= uint32(numStates) {
		return nil, 0, fmt.Errorf("dfa: dead %d out of range", dead)
	}

	bc := &nfa.ByteClasses{Count: classes, Rep: make([]byte, classes)}
	copy(bc.Of[:], h[16:])
	var seen [256]bool
	for b, c := range bc.Of {
		if int(c) >= classes {
			return nil, 0, fmt.Errorf("dfa: class id %d out of range", c)
		}
		if !seen[c] {
			seen[c] = true
			bc.Rep[c] = byte(b)
		}
	}

	d := New(numStates, bc)
	d.Start = int32(start)
	d.Dead = dead
	tables := b[headerLen:size]
	na := (numStates + 7) / 8
	binio.UnpackBits(d.Accept, tables[:na])
	if i := binio.DecodeInt32s(d.NextC, tables[na:], uint32(numStates)); i >= 0 {
		return nil, 0, fmt.Errorf("dfa: transition %d → %d out of range", i, int32(binary.LittleEndian.Uint32(tables[na+4*i:])))
	}
	if dead != NoDead && d.Accept[dead] {
		return nil, 0, fmt.Errorf("dfa: dead state accepts")
	}
	return d, size, nil
}

// ReadDFA reads one DFA encoding from r — exactly its bytes, so a D-SFA
// section may follow in the same stream — and decodes it with Decode.
func ReadDFA(r io.Reader) (*DFA, error) {
	b, err := binio.ReadExact(r, headerLen)
	if err != nil {
		return nil, fmt.Errorf("dfa: reading header: %w", err)
	}
	size, err := encodedLen(b)
	if err != nil {
		return nil, err
	}
	if b, err = binio.Append(r, b, size-headerLen); err != nil {
		return nil, fmt.Errorf("dfa: reading tables: %w", err)
	}
	d, _, err := Decode(b)
	return d, err
}
