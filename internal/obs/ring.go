package obs

import "sync/atomic"

// ringTenantMax is the number of tenant-name bytes a ring slot stores
// inline. Names longer than this are truncated in the record (the full
// name still lives in the per-tenant metric registry); 32 bytes covers
// every tenant name the serve layer accepts in practice.
const ringTenantMax = 32

const ringTenantWords = ringTenantMax / 8

// ScanRecord is one scan's flight-recorder entry: who was scanned,
// how big it was, and where the wall time went, stage by stage. Unlike
// the threshold-gated slow-scan log — which drops everything under the
// threshold — the ring keeps the last N of these unconditionally, so
// "what did the recent scans actually do" is always answerable.
type ScanRecord struct {
	// Seq is the monotonically increasing scan sequence number,
	// assigned by Record. Gaps in a snapshot mean records were
	// overwritten between reads, never silently reordered.
	Seq      uint64 `json:"seq"`
	UnixNano int64  `json:"unix_nano"`
	// Status is the HTTP status the scan was answered with: 200 for a
	// served scan; a rejected one carries only Tenant, UnixNano and its
	// error status.
	Status     int    `json:"status"`
	Tenant     string `json:"tenant"`
	Generation int64  `json:"generation"`
	Bytes      int64  `json:"bytes"`
	Chunks     int64  `json:"chunks"`
	// Stage split, all nanoseconds: time blocked reading the request
	// body, literal-prefilter time, carried-mapping compose time, and
	// total engine (match) time. ReadNs+MatchNs ≈ the request wall
	// time; PrefilterNs+ComposeNs partition MatchNs's streaming work.
	ReadNs      int64 `json:"read_ns"`
	PrefilterNs int64 `json:"prefilter_ns"`
	ComposeNs   int64 `json:"compose_ns"`
	MatchNs     int64 `json:"match_ns"`
	// Per-shard chunk visits the prefilter walked vs skipped.
	ShardChunksScanned int64 `json:"shard_chunks_scanned"`
	ShardChunksSkipped int64 `json:"shard_chunks_skipped"`
	Matches            int64 `json:"matches"`
}

// ringSlot is one ring entry. Every field is an atomic so that a
// Snapshot racing a writer reads torn-but-typed values it then rejects
// via the seq double-check — the race detector sees only atomic ops.
// The publish protocol: the writer stores seq=0 (invalidating the
// slot), writes the payload fields, then stores the new seq. A reader
// accepts a slot only if seq reads the same nonzero value before and
// after copying the payload; seqs are unique, so a torn read cannot
// masquerade as a consistent one.
type ringSlot struct {
	seq        atomic.Uint64
	unixNano   atomic.Int64
	status     atomic.Int64
	generation atomic.Int64
	bytes      atomic.Int64
	chunks     atomic.Int64
	readNs     atomic.Int64
	prefNs     atomic.Int64
	composeNs  atomic.Int64
	matchNs    atomic.Int64
	scanned    atomic.Int64
	skipped    atomic.Int64
	matches    atomic.Int64
	tenantLen  atomic.Int64
	tenant     [ringTenantWords]atomic.Uint64
}

// Ring is the always-on scan flight recorder: a fixed-size lock-free
// ring of the last N ScanRecords. Record is wait-free (one atomic
// fetch-add claims a slot, then plain atomic stores fill it) and
// performs zero heap allocations — it is safe on the per-request hot
// path regardless of scan rate, with memory bounded at construction.
// A nil *Ring is valid and inert: Record and Snapshot are no-ops, so
// callers need no "is the recorder on" branch.
type Ring struct {
	mask  uint64
	next  atomic.Uint64 // last claimed seq; seq 0 is never issued
	slots []ringSlot
}

// NewRing returns a recorder holding the most recent n records,
// rounded up to a power of two. n <= 0 returns nil (recording off).
func NewRing(n int) *Ring {
	if n <= 0 {
		return nil
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &Ring{mask: uint64(size - 1), slots: make([]ringSlot, size)}
}

// Cap returns the number of records the ring retains.
func (g *Ring) Cap() int {
	if g == nil {
		return 0
	}
	return len(g.slots)
}

// Record stores one scan record, overwriting the oldest, and returns
// the sequence number it was assigned (0 if the ring is nil). The
// record's own Seq field is ignored. Zero allocations; safe from any
// number of concurrent goroutines.
//
//sfa:noalloc
func (g *Ring) Record(r ScanRecord) uint64 {
	if g == nil {
		return 0
	}
	s := g.next.Add(1)
	slot := &g.slots[(s-1)&g.mask]
	slot.seq.Store(0) // invalidate while rewriting
	slot.unixNano.Store(r.UnixNano)
	slot.status.Store(int64(r.Status))
	slot.generation.Store(r.Generation)
	slot.bytes.Store(r.Bytes)
	slot.chunks.Store(r.Chunks)
	slot.readNs.Store(r.ReadNs)
	slot.prefNs.Store(r.PrefilterNs)
	slot.composeNs.Store(r.ComposeNs)
	slot.matchNs.Store(r.MatchNs)
	slot.scanned.Store(r.ShardChunksScanned)
	slot.skipped.Store(r.ShardChunksSkipped)
	slot.matches.Store(r.Matches)
	t := r.Tenant
	if len(t) > ringTenantMax {
		t = t[:ringTenantMax]
	}
	var words [ringTenantWords]uint64
	for i := 0; i < len(t); i++ {
		words[i>>3] |= uint64(t[i]) << uint((i&7)*8)
	}
	for i := range words {
		slot.tenant[i].Store(words[i])
	}
	slot.tenantLen.Store(int64(len(t)))
	slot.seq.Store(s) // publish
	return s
}

// Snapshot returns up to n of the most recent records, newest first.
// Records being overwritten mid-read are skipped (their seq fails the
// double-check), so every returned record is internally consistent.
// Snapshot allocates; it belongs on scrape/debug paths, not hot paths.
func (g *Ring) Snapshot(n int) []ScanRecord {
	if g == nil || n <= 0 {
		return nil
	}
	if n > len(g.slots) {
		n = len(g.slots)
	}
	last := g.next.Load()
	out := make([]ScanRecord, 0, n)
	for s := last; s > 0 && len(out) < n && s+uint64(len(g.slots)) > last; s-- {
		slot := &g.slots[(s-1)&g.mask]
		if r, ok := slot.read(s); ok {
			out = append(out, r)
		}
	}
	return out
}

// read copies the slot if it still holds sequence number want.
func (sl *ringSlot) read(want uint64) (ScanRecord, bool) {
	if sl.seq.Load() != want {
		return ScanRecord{}, false
	}
	r := ScanRecord{
		Seq:                want,
		UnixNano:           sl.unixNano.Load(),
		Status:             int(sl.status.Load()),
		Generation:         sl.generation.Load(),
		Bytes:              sl.bytes.Load(),
		Chunks:             sl.chunks.Load(),
		ReadNs:             sl.readNs.Load(),
		PrefilterNs:        sl.prefNs.Load(),
		ComposeNs:          sl.composeNs.Load(),
		MatchNs:            sl.matchNs.Load(),
		ShardChunksScanned: sl.scanned.Load(),
		ShardChunksSkipped: sl.skipped.Load(),
		Matches:            sl.matches.Load(),
	}
	var words [ringTenantWords]uint64
	for i := range words {
		words[i] = sl.tenant[i].Load()
	}
	tlen := sl.tenantLen.Load()
	if sl.seq.Load() != want {
		return ScanRecord{}, false
	}
	if tlen > 0 && tlen <= ringTenantMax {
		var buf [ringTenantMax]byte
		for i := int64(0); i < tlen; i++ {
			buf[i] = byte(words[i>>3] >> uint((i&7)*8))
		}
		r.Tenant = string(buf[:tlen])
	}
	return r, true
}
