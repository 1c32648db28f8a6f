// Package intern assigns dense ids to fixed-length rows of integers: the
// state-identity table of every construction in this module (subset
// construction, product DFA, tuple D-SFA, mask-aware minimization).
//
// A construction asks "have I seen this state before?" once per
// transition, so the table is on its hottest loop. Keying a Go map by a
// string built from the row allocates that string per lookup and per new
// state; Jung & Burgstaller (PAPERS.md) name exactly this — state
// identity by a materialised key — as the cost that dominates SFA
// construction. Here rows live flat in one slice, each row hashes to a
// 64-bit fingerprint, and open-addressed int32 slots map fingerprints to
// ids. A fingerprint hit is always confirmed by comparing the full row,
// so correctness never rests on the hash; a lookup that finds its row
// allocates nothing.
package intern

import (
	"math/bits"
	"slices"
)

// Elem is the row element type: state ids and block signatures (int32)
// or bitset and accept-mask words (uint64).
type Elem interface{ ~int32 | ~uint64 }

// Table interns rows of a fixed stride. Ids are dense and in insertion
// order, so a breadth-first construction that interns each new state as
// it discovers it numbers states in BFS order.
type Table[T Elem] struct {
	stride int
	limit  int
	rows   []T      // row id at [id*stride, (id+1)*stride)
	fps    []uint64 // fingerprint of row id
	slots  []int32  // open-addressed, linear probing; -1 is empty
	// fingerprint overrides hashRow; tests set it to force collisions.
	fingerprint func([]T) uint64
}

// New returns an empty table of rows of length stride. limit > 0 caps
// the number of rows (Intern reports -1 past it); hint pre-sizes the
// table for that many rows.
func New[T Elem](stride, limit, hint int) *Table[T] {
	if stride < 0 {
		panic("intern: negative stride")
	}
	if limit > 0 && hint > limit {
		hint = limit
	}
	hint = max(hint, 8)
	slots := make([]int32, 1<<bits.Len(uint(2*hint-1)))
	for i := range slots {
		slots[i] = -1
	}
	return &Table[T]{
		stride: stride,
		limit:  limit,
		rows:   make([]T, 0, hint*stride),
		fps:    make([]uint64, 0, hint),
		slots:  slots,
	}
}

// Intern returns row's id and whether the row is new to the table. The
// table keeps its own copy; row may be scratch the caller reuses. When
// row is new and the table already holds limit rows, Intern returns -1
// and stores nothing.
func (t *Table[T]) Intern(row []T) (id int32, fresh bool) {
	if len(row) != t.stride {
		panic("intern: row length differs from the table's stride")
	}
	var fp uint64
	if t.fingerprint != nil {
		fp = t.fingerprint(row)
	} else {
		fp = hashRow(row)
	}
	mask := uint64(len(t.slots) - 1)
	i := fp & mask
	for {
		s := t.slots[i]
		if s < 0 {
			break
		}
		if t.fps[s] == fp && slices.Equal(t.Row(s), row) {
			return s, false
		}
		i = (i + 1) & mask
	}
	n := len(t.fps)
	if t.limit > 0 && n >= t.limit {
		return -1, false
	}
	id = int32(n)
	t.rows = append(t.rows, row...)
	t.fps = append(t.fps, fp)
	t.slots[i] = id
	if 2*len(t.fps) > len(t.slots) {
		t.grow()
	}
	return id, true
}

// grow doubles the slot array and re-places every id by its stored
// fingerprint; rows are never re-hashed.
func (t *Table[T]) grow() {
	slots := make([]int32, 2*len(t.slots))
	for i := range slots {
		slots[i] = -1
	}
	mask := uint64(len(slots) - 1)
	for id, fp := range t.fps {
		i := fp & mask
		for slots[i] >= 0 {
			i = (i + 1) & mask
		}
		slots[i] = int32(id)
	}
	t.slots = slots
}

// Row returns the row interned as id. It aliases the table's storage:
// the caller must not modify it, and a later Intern may move the table
// to new storage (the returned view keeps its values, since rows are
// written once).
func (t *Table[T]) Row(id int32) []T {
	return t.rows[int(id)*t.stride : (int(id)+1)*t.stride : (int(id)+1)*t.stride]
}

// Len returns the number of interned rows; ids run from 0 to Len()-1.
func (t *Table[T]) Len() int { return len(t.fps) }

// Reset empties the table and keeps its storage for reuse.
func (t *Table[T]) Reset() {
	t.rows = t.rows[:0]
	t.fps = t.fps[:0]
	for i := range t.slots {
		t.slots[i] = -1
	}
}

// hashRow is the row fingerprint: one xxHash64-style round per element
// (multiply, rotate, multiply), so a difference in any bit of any element
// moves every bit of the state, then the murmur3 finalizer.
func hashRow[T Elem](row []T) uint64 {
	const (
		prime1 = 0x9E3779B185EBCA87
		prime2 = 0xC2B2AE3D27D4EB4F
	)
	h := uint64(len(row)) * prime1
	for _, v := range row {
		h += uint64(v) * prime2
		h = bits.RotateLeft64(h, 31) * prime1
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
