package binio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

func TestReadExact(t *testing.T) {
	data := make([]byte, 3*readChunk+17)
	rand.New(rand.NewSource(1)).Read(data)
	readers := map[string]func() io.Reader{
		"bytes":    func() io.Reader { return bytes.NewReader(data) },
		"onebyte":  func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
		"half":     func() io.Reader { return iotest.HalfReader(bytes.NewReader(data)) },
		"crc-wrap": func() io.Reader { return NewCRCReader(bytes.NewReader(data)) },
	}
	for name, mk := range readers {
		for _, n := range []int{0, 1, 100, readChunk, len(data)} {
			if name == "onebyte" && n > readChunk {
				continue
			}
			r := mk()
			got, err := ReadExact(r, n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if !bytes.Equal(got, data[:n]) {
				t.Fatalf("%s n=%d: wrong bytes", name, n)
			}
		}
	}
	if _, err := ReadExact(bytes.NewReader(data), -1); err == nil {
		t.Fatal("negative length accepted")
	}
	for _, mk := range []func() io.Reader{
		func() io.Reader { return bytes.NewReader(data[:10]) },
		func() io.Reader { return iotest.HalfReader(bytes.NewReader(data[:readChunk+5])) },
		func() io.Reader { return iotest.DataErrReader(bytes.NewReader(data[:10])) },
	} {
		if got, err := ReadExact(mk(), readChunk+100); !errors.Is(err, io.ErrUnexpectedEOF) || got != nil {
			t.Fatalf("truncated read: %v (%d bytes), want io.ErrUnexpectedEOF", err, len(got))
		}
	}
	if _, err := ReadExact(bytes.NewReader(nil), 1); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("empty stream: %v", err)
	}
}

func TestReadAll(t *testing.T) {
	data := make([]byte, 100_003)
	rand.New(rand.NewSource(4)).Read(data)
	for _, r := range []io.Reader{
		bytes.NewReader(data),
		iotest.HalfReader(bytes.NewReader(data)),
		iotest.DataErrReader(bytes.NewReader(data)),
	} {
		if got, err := ReadAll(r, len(data)+1); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("ReadAll = %d bytes, %v; want %d", len(got), err, len(data))
		}
	}
	if _, err := ReadAll(bytes.NewReader(data), len(data)); err == nil {
		t.Fatal("stream at the limit accepted")
	}
	if _, err := ReadAll(iotest.TimeoutReader(bytes.NewReader(data)), len(data)+1); !errors.Is(err, iotest.ErrTimeout) {
		t.Fatalf("read error lost: %v", err)
	}
}

// TestAppendKeepsPrefix: Append extends buf in place of a copy of it.
func TestAppendKeepsPrefix(t *testing.T) {
	buf := []byte("head")
	got, err := Append(iotest.OneByteReader(strings.NewReader("tail!")), buf, 4)
	if err != nil || string(got) != "headtail" {
		t.Fatalf("Append = %q, %v", got, err)
	}
}

// TestReadExactLyingLength: a length claim far beyond what the stream
// holds must cost an allocation proportional to the bytes delivered.
func TestReadExactLyingLength(t *testing.T) {
	payload := make([]byte, 1<<10)
	for name, r := range map[string]io.Reader{
		"plain": iotest.HalfReader(bytes.NewReader(payload)),
		"sized": bytes.NewReader(payload),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadExact(r, 1<<30)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: claimed 1 GiB over 1 KiB: %v", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
			t.Fatalf("%s: claimed 1 GiB over 1 KiB allocated %d bytes", name, got)
		}
	}
}

func TestReadUvarint(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1 << 35, ^uint64(0)} {
		var buf bytes.Buffer
		if err := WriteUvarint(&buf, v); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != UvarintLen(v) {
			t.Fatalf("UvarintLen(%d) = %d, encoded %d bytes", v, UvarintLen(v), buf.Len())
		}
		c := NewCursor(buf.Bytes())
		if got, err := ReadUvarint(&buf); err != nil || got != v {
			t.Fatalf("ReadUvarint = %d, %v; want %d", got, err, v)
		}
		if v <= 1<<35 {
			if got, err := c.Count(1<<35, "v"); err != nil || uint64(got) != v || c.Len() != 0 {
				t.Fatalf("Cursor.Count = %d, %v; want %d", got, err, v)
			}
		}
	}
	overflow := [][]byte{
		bytes.Repeat([]byte{0xff}, 11),
		append(bytes.Repeat([]byte{0xff}, 9), 0x02),
	}
	for _, b := range overflow {
		if _, err := ReadUvarint(bytes.NewReader(b)); err == nil {
			t.Fatalf("overflowing varint % x accepted", b)
		}
		c := NewCursor(b)
		if _, err := c.Count(^uint64(0), "v"); err == nil {
			t.Fatalf("cursor accepted overflowing varint % x", b)
		}
	}
	if _, err := ReadUvarint(bytes.NewReader([]byte{0x80})); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated varint: %v", err)
	}
}

func TestReadCountBound(t *testing.T) {
	var buf bytes.Buffer
	WriteUvarint(&buf, 10)
	if n, err := ReadCount(bytes.NewReader(buf.Bytes()), 10, "x"); err != nil || n != 10 {
		t.Fatalf("count at its bound: %d, %v", n, err)
	}
	if _, err := ReadCount(bytes.NewReader(buf.Bytes()), 9, "x"); err == nil {
		t.Fatal("count above its bound accepted")
	}
	c := NewCursor(buf.Bytes())
	if _, err := c.Count(9, "x"); err == nil {
		t.Fatal("cursor count above its bound accepted")
	}
}

func TestCRCReaderMatchesChecksum(t *testing.T) {
	data := make([]byte, 100_003)
	rand.New(rand.NewSource(2)).Read(data)
	want := crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli))
	cr := NewCRCReader(iotest.HalfReader(bytes.NewReader(data)))
	if _, err := io.Copy(io.Discard, cr); err != nil {
		t.Fatal(err)
	}
	if cr.Sum32() != want || Checksum(data) != want {
		t.Fatalf("CRCReader %08x, Checksum %08x, want %08x", cr.Sum32(), Checksum(data), want)
	}
}

// TestWriterRoundTrip: every Writer encoder against its decoder, across
// buffer boundaries, with nested CRC frames matching crc32.Checksum over
// the bytes each frame covered.
func TestWriterRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	i32 := make([]int32, 40_001)
	for i := range i32 {
		i32[i] = int32(r.Intn(1000))
	}
	i16 := make([]int16, 50_003)
	for i := range i16 {
		i16[i] = int16(r.Intn(300))
	}
	u64 := make([]uint64, 9_001)
	for i := range u64 {
		u64[i] = r.Uint64()
	}
	bits := make([]bool, 70_005)
	for i := range bits {
		bits[i] = r.Intn(3) == 0
	}

	var out bytes.Buffer
	w := NewWriter(&out)
	if NewWriter(w) != w {
		t.Fatal("NewWriter wrapped a Writer")
	}
	w.BeginCRC()
	w.String("magic")
	w.Uvarint(300)
	w.BeginCRC()
	w.Int32s(i32)
	w.Bits(bits)
	inner := w.EndCRC()
	w.Int16s(i16)
	w.Uint64s(u64)
	w.Uint32(0xdeadbeef)
	w.Uint64(42)
	w.Byte(7)
	outer := w.EndCRC()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	b := out.Bytes()
	if w.Count() != int64(len(b)) {
		t.Fatalf("Count %d, wrote %d", w.Count(), len(b))
	}
	if outer != Checksum(b) {
		t.Fatalf("outer CRC %08x, want %08x", outer, Checksum(b))
	}

	c := NewCursor(b)
	if s, err := c.Bytes(10, "magic"); err != nil || string(s) != "magic" {
		t.Fatalf("string %q, %v", s, err)
	}
	if v, err := c.Count(300, "v"); err != nil || v != 300 {
		t.Fatalf("uvarint %d, %v", v, err)
	}
	start := len(b) - c.Len()
	src, _ := c.Next(4*len(i32), "i32")
	got32 := make([]int32, len(i32))
	if i := DecodeInt32s(got32, src, 1000); i >= 0 || !slices.Equal(got32, i32) {
		t.Fatalf("int32 round trip failed at %d", i)
	}
	if i := DecodeInt32s(got32, src, 999); i < 0 || i32[i] != 999 {
		t.Fatalf("DecodeInt32s limit check reported %d", i)
	}
	src, _ = c.Next((len(bits)+7)/8, "bits")
	gotBits := make([]bool, len(bits))
	UnpackBits(gotBits, src)
	if !slices.Equal(gotBits, bits) {
		t.Fatal("bitmap round trip failed")
	}
	if inner != Checksum(b[start:len(b)-c.Len()]) {
		t.Fatal("inner CRC does not cover exactly its frame")
	}
	src, _ = c.Next(2*len(i16), "i16")
	got16 := make([]int16, len(i16))
	if i := DecodeInt16s(got16, src, 300); i >= 0 || !slices.Equal(got16, i16) {
		t.Fatalf("int16 round trip failed at %d", i)
	}
	src, _ = c.Next(8*len(u64), "u64")
	for i, v := range u64 {
		if binary.LittleEndian.Uint64(src[8*i:]) != v {
			t.Fatalf("uint64 %d differs", i)
		}
	}
	tail, err := c.Next(13, "tail")
	if err != nil || binary.LittleEndian.Uint32(tail) != 0xdeadbeef ||
		binary.LittleEndian.Uint64(tail[4:]) != 42 || tail[12] != 7 || c.Len() != 0 {
		t.Fatalf("scalar tail % x, %v, %d left", tail, err, c.Len())
	}
	if _, err := c.Next(1, "past the end"); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read past the end: %v", err)
	}
}

// TestWriterStickyError: the first write error is kept and returned.
func TestWriterStickyError(t *testing.T) {
	w := NewWriter(failingWriter{})
	w.Int32s(make([]int32, writeBuf))
	w.String("more")
	if err := w.Flush(); err == nil {
		t.Fatal("write error lost")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }
