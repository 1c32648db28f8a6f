package obs

// ScanStats aggregates the streaming-scan hot-path measurements for one
// owner (a tenant, a rule set, a benchmark). The zero value is ready to
// use; engines hold a *ScanStats and record into it from every worker
// concurrently, so all fields are the lock-free primitives above and
// RecordChunk stays allocation-free.
type ScanStats struct {
	// Chunks and ChunkBytes count every ComposeChunk call that reached
	// an automaton (i.e. survived the prefilter).
	Chunks     Counter
	ChunkBytes Counter
	// ComposeNs is the per-chunk compose latency (scan from identity +
	// ⊙-fold), in nanoseconds.
	ComposeNs Histogram
	// ChunkSize is the distribution of chunk sizes in bytes.
	ChunkSize Histogram
}

// RecordChunk records one composed chunk of n bytes that took ns
// nanoseconds.
//
//sfa:noalloc
func (s *ScanStats) RecordChunk(n int, ns int64) {
	s.Chunks.Inc()
	s.ChunkBytes.Add(int64(n))
	s.ComposeNs.Observe(ns)
	s.ChunkSize.Observe(int64(n))
}

// ScanSnapshot is a point-in-time copy of a ScanStats.
type ScanSnapshot struct {
	Chunks     int64             `json:"chunks"`
	ChunkBytes int64             `json:"chunk_bytes"`
	ComposeNs  HistogramSnapshot `json:"compose_ns"`
	ChunkSize  HistogramSnapshot `json:"chunk_size"`
}

// Snapshot returns a relaxed point-in-time copy.
func (s *ScanStats) Snapshot() ScanSnapshot {
	return ScanSnapshot{
		Chunks:     s.Chunks.Load(),
		ChunkBytes: s.ChunkBytes.Load(),
		ComposeNs:  s.ComposeNs.Snapshot(),
		ChunkSize:  s.ChunkSize.Snapshot(),
	}
}
