package prefilter

import (
	"bytes"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/obs"
)

// Hit is one literal occurrence: Lits()[Lit] starts at data[Pos].
type Hit struct {
	Lit int
	Pos int
}

// maskWidth caps the filter window: pos is 256 × maskWidth words, 8 KiB.
const maskWidth = 4

// Matcher finds every occurrence of a fixed literal set with one
// position-mask filter. The window is the first w = min(shortest
// literal, maskWidth) bytes of each literal; the distinct w-byte heads
// are spread over at most 64 buckets, and pos[b] says, per window
// offset, which buckets hold a literal with byte b there. A position is
// a candidate when the AND of its w lookups is non-zero — lookups that
// do not depend on each other, with no skip to wait for — and only the
// surviving buckets' literals are compared. Stage names the sweep that
// finds the positions to test:
//
//	index   one literal — a bytes.Index loop, no filter
//	anchor  every literal holds the same byte at some window offset —
//	        bytes.IndexByte (SIMD) for that byte, the mask test at each
//	        stop
//	mask    otherwise — the mask test at every position
//
// A Matcher is immutable after construction and safe for concurrent
// use; AppendHits keeps all state on the caller's stack.
type Matcher struct {
	lits   []string
	maxLen int
	stage  string

	w int // window length
	// pos[b][maskWidth-w+j] has bit k set when a literal of bucket k has
	// byte b at offset j; the columns below maskWidth-w accept every
	// byte, so the sweep is the same four lookups for every w.
	pos    [256][maskWidth]uint64
	bucket [][]int32 // literal ids per bucket

	one []byte // the literal of a one-literal set (stage index)
	// anchor is the window offset that holds anchorByte in every literal
	// (stage anchor), -1 when there is none.
	anchor     int
	anchorByte byte

	// Observability: every AppendHits call records how much input it
	// swept and how many literal occurrences it surfaced. Lock-free
	// sharded counters — AppendHits runs inside the streaming hot path
	// and must stay allocation-free.
	calls obs.Counter
	bytes obs.Counter
	hits  obs.Counter
}

// MatcherStats is a point-in-time view of one Matcher's counters.
type MatcherStats struct {
	Stage string `json:"stage"` // the sweep: index, anchor or mask
	Calls int64  `json:"calls"` // AppendHits invocations
	Bytes int64  `json:"bytes"` // input bytes swept
	Hits  int64  `json:"hits"`  // literal occurrences surfaced
}

// Stats snapshots the matcher's counters.
func (m *Matcher) Stats() MatcherStats {
	return MatcherStats{
		Stage: m.stage,
		Calls: m.calls.Load(),
		Bytes: m.bytes.Load(),
		Hits:  m.hits.Load(),
	}
}

// NewMatcher builds the filter for lits, which must be non-empty,
// duplicate-free, and contain no empty string.
func NewMatcher(lits []string) *Matcher {
	m := &Matcher{lits: lits, w: maskWidth, stage: "mask", anchor: -1}
	for _, l := range lits {
		m.w = min(m.w, len(l))
		m.maxLen = max(m.maxLen, len(l))
	}
	if len(lits) == 1 {
		m.stage, m.one = "index", []byte(lits[0])
		return m
	}
	// Heads in case-folded order, so that when more than 64 of them must
	// share buckets the ones that do are alike — case variants of one
	// keyword first — and the bucket's masks stay narrow.
	ids := make([]int32, len(lits))
	for i := range ids {
		ids[i] = int32(i)
	}
	head := func(id int32) string { return lits[id][:m.w] }
	slices.SortStableFunc(ids, func(a, b int32) int {
		if c := strings.Compare(strings.ToLower(head(a)), strings.ToLower(head(b))); c != 0 {
			return c
		}
		return strings.Compare(head(a), head(b))
	})
	heads := 1
	for i := 1; i < len(ids); i++ {
		if head(ids[i]) != head(ids[i-1]) {
			heads++
		}
	}
	perBucket := (heads + 63) / 64
	m.bucket = make([][]int32, (heads+perBucket-1)/perBucket)
	pad := maskWidth - m.w
	for b := range m.pos {
		for j := 0; j < pad; j++ {
			m.pos[b][j] = ^uint64(0)
		}
	}
	rank := 0
	for i, id := range ids {
		if i > 0 && head(id) != head(ids[i-1]) {
			rank++
		}
		k := rank / perBucket
		m.bucket[k] = append(m.bucket[k], id)
		for j := 0; j < m.w; j++ {
			m.pos[lits[id][j]][pad+j] |= 1 << k
		}
	}
	for j := 0; j < m.w; j++ {
		c := lits[0][j]
		if !slices.ContainsFunc(lits, func(l string) bool { return l[j] != c }) {
			m.stage, m.anchor, m.anchorByte = "anchor", j, c
			break
		}
	}
	return m
}

// Lits returns the literal set (do not mutate).
func (m *Matcher) Lits() []string { return m.lits }

// MaxLen returns the longest literal's length.
func (m *Matcher) MaxLen() int { return m.maxLen }

// Stage names the sweep NewMatcher selected.
func (m *Matcher) Stage() string { return m.stage }

// AppendHits appends every occurrence of every literal in data to dst,
// ascending by position, and returns it.
//
//sfa:noalloc
func (m *Matcher) AppendHits(dst []Hit, data []byte) []Hit {
	n0 := len(dst)
	switch {
	case m.one != nil:
		dst = m.indexSweep(dst, data)
	case m.anchor >= 0:
		dst = m.anchorSweep(dst, data)
	default:
		dst = m.maskSweep(dst, data, 0)
	}
	m.calls.Inc()
	m.bytes.Add(int64(len(data)))
	m.hits.Add(int64(len(dst) - n0))
	return dst
}

//sfa:noalloc
func (m *Matcher) indexSweep(dst []Hit, data []byte) []Hit {
	for off := 0; ; {
		k := bytes.Index(data[off:], m.one)
		if k < 0 {
			return dst
		}
		dst = append(dst, Hit{0, off + k})
		off += k + 1
	}
}

// maskSweep tests every window that starts at or after from. a1..a3
// carry the buckets whose first one to three columns matched the bytes
// just read, so each byte is loaded once and its four lookups share a
// cache line; before data[from] only the accept-all columns have
// matched.
//
//sfa:noalloc
func (m *Matcher) maskSweep(dst []Hit, data []byte, from int) []Hit {
	var a1, a2, a3 uint64
	switch m.w {
	case 1:
		a3 = ^uint64(0)
		fallthrough
	case 2:
		a2 = ^uint64(0)
		fallthrough
	case 3:
		a1 = ^uint64(0)
	}
	for i := from; i < len(data); i++ {
		t := &m.pos[data[i]]
		cand := a3 & t[3]
		a3, a2, a1 = a2&t[2], a1&t[1], t[0]
		if cand != 0 {
			dst = m.verify(dst, data, i+1-m.w, cand)
		}
	}
	return dst
}

// anchorSweep stops at each anchorByte and tests the window around it.
// A stop costs about what maskSweep spends on ten bytes, so — as
// bytes.Index does with its own IndexByte loop — input that turns out
// to hold the byte more often than one in eight (past the first 16
// stops) is finished by maskSweep: all-anchor input would otherwise
// cost ten times a walk.
//
//sfa:noalloc
func (m *Matcher) anchorSweep(dst []Hit, data []byte) []Hit {
	pad := maskWidth - m.w
	for off, stops := m.anchor, 0; off < len(data); stops++ {
		if stops > (off+128)/8 {
			return m.maskSweep(dst, data, off-m.anchor)
		}
		k := bytes.IndexByte(data[off:], m.anchorByte)
		if k < 0 {
			break
		}
		p := off + k - m.anchor
		off += k + 1
		if p+m.w > len(data) {
			break
		}
		cand := ^uint64(0)
		for j, b := range data[p : p+m.w] {
			cand &= m.pos[b][pad+j]
		}
		if cand != 0 {
			dst = m.verify(dst, data, p, cand)
		}
	}
	return dst
}

// verify compares the literals of the candidate buckets at data[p:].
//
//sfa:noalloc
func (m *Matcher) verify(dst []Hit, data []byte, p int, cand uint64) []Hit {
	rest := data[p:]
	for ; cand != 0; cand &= cand - 1 {
		for _, id := range m.bucket[bits.TrailingZeros64(cand)] {
			if l := m.lits[id]; len(l) <= len(rest) && string(rest[:len(l)]) == l {
				dst = append(dst, Hit{int(id), p})
			}
		}
	}
	return dst
}
