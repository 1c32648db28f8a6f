package intern

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// reference is the string-keyed map the table replaces: the oracle every
// test here checks ids against.
type reference map[string]int32

func keyOf[T Elem](row []T) string {
	b := make([]byte, 0, 8*len(row))
	for _, v := range row {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return string(b)
}

// check interns row into both the table and the reference and fails on
// any disagreement in id, freshness or stored contents.
func check[T Elem](t *testing.T, tab *Table[T], ref reference, limit int, row []T) {
	t.Helper()
	key := keyOf(row)
	want, seen := ref[key]
	full := !seen && limit > 0 && len(ref) >= limit
	if !seen && !full {
		want = int32(len(ref))
		ref[key] = want
	}
	id, fresh := tab.Intern(row)
	switch {
	case full:
		if id != -1 || fresh {
			t.Fatalf("row %v past limit %d: got id %d fresh %v, want -1", row, limit, id, fresh)
		}
	case id != want || fresh == seen:
		t.Fatalf("row %v: got id %d fresh %v, want id %d fresh %v", row, id, fresh, want, !seen)
	}
	if tab.Len() != len(ref) {
		t.Fatalf("Len %d, reference holds %d", tab.Len(), len(ref))
	}
	if id >= 0 && keyOf(tab.Row(id)) != key {
		t.Fatalf("Row(%d) = %v, interned %v", id, tab.Row(id), row)
	}
}

// randomRows draws rows that share long prefixes and often repeat: most
// rows copy an earlier row and change up to two of its last eight
// elements (a third change nothing), so a miss usually differs from an
// existing row only near its end.
func randomRows[T Elem](r *rand.Rand, stride, n int, wide bool) [][]T {
	rows := make([][]T, 0, n)
	for i := 0; i < n; i++ {
		row := make([]T, stride)
		if len(rows) > 0 && r.Intn(4) != 0 {
			copy(row, rows[r.Intn(len(rows))])
		}
		for j := r.Intn(3); j > 0; j-- {
			v := uint64(r.Intn(16))
			if wide && r.Intn(2) == 0 {
				v |= 1 << 63
			}
			row[stride-1-r.Intn(min(stride, 8))] = T(v)
		}
		rows = append(rows, row)
	}
	return rows
}

func TestInternMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for stride := 1; stride <= 64; stride++ {
		for _, limit := range []int{0, 1, 37, 500} {
			// hint 1 starts from the smallest table, so the 2000 rows
			// force many resizes.
			ti, ref := New[int32](stride, limit, 1), reference{}
			for _, row := range randomRows[int32](r, stride, 2000, false) {
				check(t, ti, ref, limit, row)
			}
			tu, ref := New[uint64](stride, limit, 1), reference{}
			for _, row := range randomRows[uint64](r, stride, 2000, true) {
				check(t, tu, ref, limit, row)
			}
		}
	}
}

// TestInternFullCompareSeparatesCollisions gives every row the same
// fingerprint, so all rows share one probe chain and only the full row
// compare tells them apart.
func TestInternFullCompareSeparatesCollisions(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, stride := range []int{2, 3, 8, 16} {
		tab, ref := New[int32](stride, 0, 1), reference{}
		tab.fingerprint = func([]int32) uint64 { return 42 }
		for _, row := range randomRows[int32](r, stride, 400, false) {
			check(t, tab, ref, 0, row)
		}
		if tab.Len() < 50 {
			t.Fatalf("stride %d: only %d distinct rows; the chain is too short to test", stride, tab.Len())
		}
	}
}

func TestInternReset(t *testing.T) {
	tab := New[uint64](3, 0, 1)
	rows := randomRows[uint64](rand.New(rand.NewSource(3)), 3, 200, true)
	for round := 0; round < 3; round++ {
		tab.Reset()
		ref := reference{}
		for _, row := range rows[round*50:] {
			check(t, tab, ref, 0, row)
		}
	}
}

func TestInternHitAllocatesNothing(t *testing.T) {
	tab := New[int32](8, 0, 1)
	rows := randomRows[int32](rand.New(rand.NewSource(4)), 8, 1000, false)
	for _, row := range rows {
		tab.Intern(row)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		tab.Intern(rows[i%len(rows)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("re-interning an existing row allocates %.1f times per call", allocs)
	}
}

// FuzzIntern decodes a stride, a limit and a row stream from the fuzz
// bytes and checks the table against the reference map, through both
// row element types.
func FuzzIntern(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 3, 1, 2, 3, 1, 2, 4})
	f.Add([]byte{1, 2, 0, 0, 1, 1, 2, 2, 3})
	f.Add([]byte{64, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		stride := int(data[0])%64 + 1
		limit := int(data[1]) % 40 // 0 = unlimited
		data = data[2:]
		ti, tu := New[int32](stride, limit, 1), New[uint64](stride, limit, 1)
		refI, refU := reference{}, reference{}
		rowI, rowU := make([]int32, stride), make([]uint64, stride)
		for len(data) >= stride {
			for j, b := range data[:stride] {
				// Few distinct values, so rows repeat; a high bit, so
				// uint64 rows differ in their top word too.
				rowI[j] = int32(b%4) - 2
				rowU[j] = uint64(b%4) | uint64(b&0x80)<<56
			}
			data = data[stride:]
			check(t, ti, refI, limit, rowI)
			check(t, tu, refU, limit, rowU)
		}
	})
}
