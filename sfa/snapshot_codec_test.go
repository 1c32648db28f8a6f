package sfa

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"

	"repro/internal/snort"
)

// shardFrames locates the shard frames of a snapshot: for frame i,
// prefix[i] is the offset of its length varint and frames[i] the
// [start, end) of the frame it announces.
func shardFrames(t *testing.T, snap []byte) (prefix []int, frames [][2]int) {
	t.Helper()
	off := len(ruleSetMagic) + 2
	next := func() int {
		v, k := binary.Uvarint(snap[off:])
		if k <= 0 {
			t.Fatalf("bad varint at %d", off)
		}
		off += k
		return int(v)
	}
	for range next() {
		off += next() // name
		off += next() // pattern
		off++         // flags
	}
	off += len("SFA\x01SET\x01")
	next() // rules
	next() // plan shards
	for range next() {
		p := off
		n := next()
		prefix = append(prefix, p)
		frames = append(frames, [2]int{off, off + n})
		off += n
	}
	if off+4 != len(snap) {
		t.Fatalf("frames end at %d, snapshot is %d bytes with its CRC", off, len(snap))
	}
	return prefix, frames
}

// TestLoadRuleSetReaderShapes: a snapshot decodes to the same rule set
// whatever the reader's shape — whole slices, one byte at a time, half
// reads, data delivered with io.EOF — and saves back to the same bytes.
// A cut at any shard-frame boundary, and a frame that claims 1 GiB,
// error; the lie costs an allocation bounded by what was delivered.
func TestLoadRuleSetReaderShapes(t *testing.T) {
	rs, err := NewRuleSetFromDefs(snapshotDefs(), WithSearch(), WithThreads(2), WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	probes := oracleInputs(t)
	dst := make([]uint64, rs.MaskWords())
	want := make([][]string, len(probes))
	for i, in := range probes {
		want[i] = rs.MaskNames(rs.MatchMask(in, dst))
	}

	shapes := map[string]func([]byte) io.Reader{
		"bytes":   func(b []byte) io.Reader { return bytes.NewReader(b) },
		"onebyte": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		"half":    func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
		"dataerr": func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
	}
	for name, shape := range shapes {
		loaded, err := LoadRuleSet(shape(snap), WithThreads(2))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, in := range probes {
			if got := loaded.MaskNames(loaded.MatchMask(in, dst)); !slices.Equal(got, want[i]) {
				t.Fatalf("%s: probe %d matched %v, want %v", name, i, got, want[i])
			}
		}
		var again bytes.Buffer
		if err := loaded.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), snap) {
			t.Fatalf("%s: saved again, the snapshot differs", name)
		}
	}

	prefix, frames := shardFrames(t, snap)
	if len(frames) < 2 {
		t.Fatalf("fixture has %d shard frames, want several", len(frames))
	}
	for i, f := range frames {
		for _, cut := range []int{prefix[i], f[0], f[0] + 1, f[1] - 1, f[1]} {
			for name, shape := range shapes {
				if _, err := LoadRuleSet(shape(snap[:cut])); err == nil {
					t.Fatalf("%s: cut at %d (frame %d spans %d–%d) accepted", name, cut, i, f[0], f[1])
				}
			}
		}
	}

	lie := append(binary.AppendUvarint(slices.Clone(snap[:prefix[0]]), 1<<30), snap[frames[0][0]:]...)
	for name, shape := range shapes {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadRuleSet(shape(lie))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a frame claiming 1 GiB loaded", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
			t.Fatalf("%s: a frame claiming 1 GiB over %d bytes allocated %d bytes", name, len(lie), got)
		}
	}
}

// TestSnapshotCodecAllocations guards what a snapshot costs beyond the
// tables it carries: saving a multi-shard set streams through one
// buffer, and loading it allocates a small multiple of its bytes.
func TestSnapshotCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	rs, err := NewRuleSetFromDefs(snortDefs(snort.ScanSample(12)), WithSearch(), WithThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	if rs.NumShards() < 2 {
		t.Fatalf("fixture has %d shards, want several", rs.NumShards())
	}
	var buf bytes.Buffer
	if err := rs.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	allocated := func(f func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	save := allocated(func() error { return rs.Save(io.Discard) })
	load := allocated(func() error {
		_, err := LoadRuleSet(bytes.NewReader(snap), WithThreads(1))
		return err
	})
	t.Logf("%d-byte snapshot: Save allocates %d bytes, LoadRuleSet %d (%.1f×)",
		len(snap), save, load, float64(load)/float64(len(snap)))
	if save > 1<<20 {
		t.Errorf("Save allocates %d bytes, want ≤ 1 MiB", save)
	}
	if load > 5*uint64(len(snap)) {
		t.Errorf("LoadRuleSet allocates %d bytes for a %d-byte snapshot, want ≤ 5×", load, len(snap))
	}
}
