// Package binio holds the small binary-stream helpers shared by the
// automaton codecs (internal/dfa, internal/core, internal/multi) and the
// rule-set snapshot layer (package sfa).
//
// The one rule every reader here obeys: never allocate more than the
// stream has actually delivered. Snapshot and cache files are parsed
// from untrusted bytes (FuzzLoadRuleSet feeds the decoders arbitrary
// mutations), so a length field is a *claim*, not a fact — ReadExact
// grows its buffer geometrically as data arrives, which turns a lying
// multi-gigabyte length prefix into a prompt io.ErrUnexpectedEOF instead
// of a huge up-front make().
//
// Decoding is two steps: a reader frames a section into one buffer
// (ReadExact, Append), then a slice parser decodes it in place (Cursor
// and the array decoders). Encoding goes through one Writer per output,
// which buffers, keeps the running CRC of every open frame and encodes
// arrays chunk by chunk straight into its buffer.
package binio

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
)

// readChunk bounds the first allocation of a read whose length the
// stream cannot vouch for. Each later step at most doubles what has been
// delivered, so a buffer is never more than twice the bytes present.
const readChunk = 1 << 20

// ReadExact reads exactly n bytes from r; see Append. n < 0 is an error.
func ReadExact(r io.Reader, n int) ([]byte, error) { return Append(r, nil, n) }

// Append reads exactly n more bytes from r onto the end of buf and
// returns the extended slice; on error the result is nil. The bytes are
// read straight into the buffer's spare capacity. When that runs out,
// the buffer grows to the smaller of the claim and twice its length (at
// least readChunk), so the allocation stays proportional to what r
// delivered. A reader that reports how many bytes it still holds
// (bytes.Reader, bytes.Buffer, strings.Reader, also behind a CRCReader)
// and holds all n gets its buffer sized once.
func Append(r io.Reader, buf []byte, n int) ([]byte, error) {
	if n < 0 || n > math.MaxInt-len(buf) {
		return nil, fmt.Errorf("binio: bad length %d", n)
	}
	want := len(buf) + n
	if cap(buf) < want && n <= remaining(r) {
		buf = grow(buf, want)
	}
	for len(buf) < want {
		if len(buf) == cap(buf) {
			buf = grow(buf, min(want, len(buf)+max(len(buf), readChunk)))
		}
		k, err := io.ReadFull(r, buf[len(buf):min(cap(buf), want)])
		buf = buf[:len(buf)+k]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return buf, nil
}

// ReadAll reads r to EOF, like io.ReadAll, but doubles its buffer each
// time it fills, where io.ReadAll's append grows a large one by a
// quarter: each buffer is at most twice the bytes r had delivered. A
// stream of limit bytes or more is an error.
func ReadAll(r io.Reader, limit int) ([]byte, error) {
	buf := make([]byte, 0, min(limit, 4<<10))
	for {
		if len(buf) == cap(buf) {
			if len(buf) == limit {
				return nil, fmt.Errorf("binio: stream longer than %d bytes", limit)
			}
			buf = grow(buf, min(limit, 2*len(buf)))
		}
		k, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+k]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// grow returns a copy of buf with capacity exactly c.
func grow(buf []byte, c int) []byte {
	nb := make([]byte, len(buf), c)
	copy(nb, buf)
	return nb
}

// remaining reports how many bytes r still holds, or -1 if it cannot
// tell.
func remaining(r io.Reader) int {
	switch v := r.(type) {
	case interface{ Len() int }:
		return v.Len()
	case *CRCReader:
		return remaining(v.r)
	}
	return -1
}

// WriteUvarint writes v in the standard varint encoding.
func WriteUvarint(w io.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}

// UvarintLen is the size of v's varint encoding.
func UvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// ReadUvarint reads a varint from a plain io.Reader, one byte at a time
// (the codec readers are not io.ByteReaders).
func ReadUvarint(r io.Reader) (uint64, error) {
	var x uint64
	var shift uint
	var b [1]byte
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		c := b[0]
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, fmt.Errorf("binio: varint overflows 64 bits")
			}
			return x | uint64(c)<<shift, nil
		}
		x |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, fmt.Errorf("binio: varint overflows 64 bits")
}

// ReadCount reads a varint and validates it against an inclusive upper
// bound, the shape every "how many follow" field of the codecs takes.
func ReadCount(r io.Reader, max uint64, what string) (int, error) {
	v, err := ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("binio: reading %s count: %w", what, err)
	}
	return checkCount(v, max, what)
}

func checkCount(v, max uint64, what string) (int, error) {
	if v > max {
		return 0, fmt.Errorf("binio: implausible %s count %d (max %d)", what, v, max)
	}
	return int(v), nil
}

// ReadBytes reads a length-prefixed byte string, rejecting declared
// lengths over max before any proportional read.
func ReadBytes(r io.Reader, max uint64, what string) ([]byte, error) {
	n, err := ReadCount(r, max, what)
	if err != nil {
		return nil, err
	}
	b, err := ReadExact(r, n)
	if err != nil {
		return nil, fmt.Errorf("binio: reading %s (%d bytes): %w", what, n, err)
	}
	return b, nil
}

// ReadString is ReadBytes for strings.
func ReadString(r io.Reader, max uint64, what string) (string, error) {
	b, err := ReadBytes(r, max, what)
	return string(b), err
}

// Cursor reads a frame that is already in memory: the slice-side twin
// of ReadCount and ReadBytes, for parsers that decode a buffered frame
// in place. The slices it returns alias the frame.
type Cursor struct{ b []byte }

// NewCursor starts a cursor at the front of b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

// Len is the number of bytes not yet consumed.
func (c *Cursor) Len() int { return len(c.b) }

// Next consumes the next n bytes.
func (c *Cursor) Next(n int, what string) ([]byte, error) {
	if n < 0 || n > len(c.b) {
		return nil, fmt.Errorf("binio: reading %s (%d bytes, %d left): %w", what, n, len(c.b), io.ErrUnexpectedEOF)
	}
	b := c.b[:n:n]
	c.b = c.b[n:]
	return b, nil
}

// Count consumes a varint and validates it like ReadCount.
func (c *Cursor) Count(max uint64, what string) (int, error) {
	v, k := binary.Uvarint(c.b)
	switch {
	case k == 0:
		return 0, fmt.Errorf("binio: reading %s count: %w", what, io.ErrUnexpectedEOF)
	case k < 0:
		return 0, fmt.Errorf("binio: reading %s count: varint overflows 64 bits", what)
	}
	c.b = c.b[k:]
	return checkCount(v, max, what)
}

// Bytes consumes a length-prefixed byte string like ReadBytes.
func (c *Cursor) Bytes(max uint64, what string) ([]byte, error) {
	n, err := c.Count(max, what)
	if err != nil {
		return nil, err
	}
	return c.Next(n, what)
}

// The array decoders are the codecs' hot loops: one pass over the
// source, no bounds check in the loop body, and one unsigned compare
// per element for the range check.

// UnpackBits is the inverse of Writer.Bits: bit i&7 of src[i>>3] into
// dst[i]. src must hold ⌈len(dst)/8⌉ bytes.
func UnpackBits(dst []bool, src []byte) {
	for len(src) > 0 && len(dst) > 0 {
		x := src[0]
		src = src[1:]
		row := dst[:min(8, len(dst))]
		for j := range row {
			row[j] = x&(1<<j) != 0
		}
		dst = dst[len(row):]
	}
}

// DecodeInt32s decodes little-endian 32-bit words from src, which holds
// exactly 4·len(dst) bytes, into dst. It returns the index of the first
// word that is not below limit, or -1.
func DecodeInt32s(dst []int32, src []byte, limit uint32) int {
	for i := range dst {
		if len(src) < 4 {
			break
		}
		v := binary.LittleEndian.Uint32(src)
		src = src[4:]
		if v >= limit {
			return i
		}
		dst[i] = int32(v)
	}
	return -1
}

// DecodeInt16s is DecodeInt32s for 16-bit words.
func DecodeInt16s(dst []int16, src []byte, limit uint16) int {
	for i := range dst {
		if len(src) < 2 {
			break
		}
		v := binary.LittleEndian.Uint16(src)
		src = src[2:]
		if v >= limit {
			return i
		}
		dst[i] = int16(v)
	}
	return -1
}

// CRC-32C (Castagnoli) framing shared by the shard, set, and snapshot
// codecs: writers keep a running CRC per open frame (Writer.BeginCRC),
// readers hash through a CRCReader or Checksum a buffered frame, and the
// 4-byte little-endian trailer is compared at the end.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// NewCRC32C returns a running CRC-32C for the writer side of a frame.
func NewCRC32C() hash.Hash32 { return crc32.New(castagnoli) }

// CRCReader hashes everything read through it.
type CRCReader struct {
	r   io.Reader
	sum uint32
}

// NewCRCReader wraps r with a running CRC-32C.
func NewCRCReader(r io.Reader) *CRCReader { return &CRCReader{r: r} }

func (c *CRCReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.sum = crc32.Update(c.sum, castagnoli, p[:n])
	return n, err
}

// Sum32 returns the CRC of everything read so far.
func (c *CRCReader) Sum32() uint32 { return c.sum }

// writeBuf is the Writer's buffer size: the unit in which arrays are
// encoded, hashed and handed to the underlying writer.
const writeBuf = 64 << 10

// Writer is an encoder's one buffered output. Scalars and arrays are
// encoded straight into its buffer, which is hashed into the running CRC
// of every open frame and handed to the underlying writer when it fills:
// no buffer per section and no whole-array temporary. The first write
// error sticks; later writes are dropped and Flush returns it.
type Writer struct {
	w      io.Writer
	buf    []byte
	crcs   []uint32 // running CRC-32Cs of the open frames, innermost last
	hashed int      // buf[:hashed] is already folded into crcs
	n      int64    // bytes accepted so far
	err    error
}

// NewWriter returns a Writer over w, or w itself when it already is one,
// so nested encoders share one buffer.
func NewWriter(w io.Writer) *Writer {
	if bw, ok := w.(*Writer); ok {
		return bw
	}
	return &Writer{w: w, buf: make([]byte, 0, writeBuf)}
}

// Count is the number of bytes written so far, buffered ones included.
func (w *Writer) Count() int64 { return w.n }

// fold hashes the buffered bytes not yet hashed into every open CRC.
func (w *Writer) fold() {
	for i := range w.crcs {
		w.crcs[i] = crc32.Update(w.crcs[i], castagnoli, w.buf[w.hashed:])
	}
	w.hashed = len(w.buf)
}

// Flush hands the buffered bytes to the underlying writer and returns
// the first error the Writer met.
func (w *Writer) Flush() error {
	w.fold()
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf, w.hashed = w.buf[:0], 0
	return w.err
}

// room returns the buffer's free space, flushing first if it is less
// than k (≤ writeBuf) bytes.
func (w *Writer) room(k int) []byte {
	if cap(w.buf)-len(w.buf) < k {
		w.Flush()
	}
	return w.buf[len(w.buf):cap(w.buf)]
}

// advance commits k bytes written into room.
func (w *Writer) advance(k int) {
	w.buf = w.buf[:len(w.buf)+k]
	w.n += int64(k)
}

// BeginCRC opens a frame: every byte written until the matching EndCRC
// is hashed into its CRC-32C.
func (w *Writer) BeginCRC() {
	w.fold()
	w.crcs = append(w.crcs, 0)
}

// EndCRC closes the innermost open frame and returns its CRC-32C.
func (w *Writer) EndCRC() uint32 {
	w.fold()
	c := w.crcs[len(w.crcs)-1]
	w.crcs = w.crcs[:len(w.crcs)-1]
	return c
}

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		k := copy(w.room(1), p)
		w.advance(k)
		p = p[k:]
	}
	return n, w.err
}

// WriteString writes s.
func (w *Writer) WriteString(s string) (int, error) {
	n := len(s)
	for len(s) > 0 {
		k := copy(w.room(1), s)
		w.advance(k)
		s = s[k:]
	}
	return n, w.err
}

// Byte writes one byte.
func (w *Writer) Byte(b byte) {
	w.room(1)[0] = b
	w.advance(1)
}

// Uvarint writes v in the standard varint encoding.
func (w *Writer) Uvarint(v uint64) {
	w.advance(binary.PutUvarint(w.room(binary.MaxVarintLen64), v))
}

// String writes a varint length prefix followed by s.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.WriteString(s)
}

// Uint32 writes v little-endian.
func (w *Writer) Uint32(v uint32) {
	binary.LittleEndian.PutUint32(w.room(4), v)
	w.advance(4)
}

// Uint64 writes v little-endian.
func (w *Writer) Uint64(v uint64) {
	binary.LittleEndian.PutUint64(w.room(8), v)
	w.advance(8)
}

// Bits writes v as a bitmap of ⌈len(v)/8⌉ bytes: v[i] is bit i&7 of
// byte i>>3.
func (w *Writer) Bits(v []bool) {
	for len(v) > 0 {
		b := w.room(1)
		k := min(len(b), (len(v)+7)/8)
		for i := range b[:k] {
			var x byte
			for j, on := range v[8*i : min(8*i+8, len(v))] {
				if on {
					x |= 1 << j
				}
			}
			b[i] = x
		}
		w.advance(k)
		v = v[min(8*k, len(v)):]
	}
}

// Int16s writes v as little-endian 16-bit words.
func (w *Writer) Int16s(v []int16) {
	for len(v) > 0 {
		b := w.room(2)
		k := min(len(v), len(b)/2)
		for i, x := range v[:k] {
			binary.LittleEndian.PutUint16(b[2*i:], uint16(x))
		}
		w.advance(2 * k)
		v = v[k:]
	}
}

// Int32s writes v as little-endian 32-bit words.
func (w *Writer) Int32s(v []int32) {
	for len(v) > 0 {
		b := w.room(4)
		k := min(len(v), len(b)/4)
		for i, x := range v[:k] {
			binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
		}
		w.advance(4 * k)
		v = v[k:]
	}
}

// Uint64s writes v as little-endian 64-bit words.
func (w *Writer) Uint64s(v []uint64) {
	for len(v) > 0 {
		b := w.room(8)
		k := min(len(v), len(b)/8)
		for i, x := range v[:k] {
			binary.LittleEndian.PutUint64(b[8*i:], x)
		}
		w.advance(8 * k)
		v = v[k:]
	}
}
