package obs

import "math/bits"

// NumBuckets is the fixed bucket count of every Histogram: bucket i
// holds observations v with bits.Len64(v) == i, i.e. v in
// [2^(i-1), 2^i). Bucket 0 holds v == 0; the last bucket absorbs
// everything ≥ 2^(NumBuckets-2). 40 buckets cover 1 ns … ~9 minutes
// (or 1 byte … ~512 GiB) — the full dynamic range of anything the
// engine measures — at ×2 resolution.
const NumBuckets = 40

// Histogram is a fixed-bucket log₂ histogram with an atomic bucket per
// power of two. The zero value is ready to use. Observe is two atomic
// adds and a bits.Len64 — no floats, no sorting, no allocation — so it
// is safe inside the 0 allocs/op chunk hot path. Values are recorded in
// their native integer unit (nanoseconds, bytes); the metric name
// carries the unit suffix.
type Histogram struct {
	sum     Counter
	buckets [NumBuckets]Counter
}

// Observe records one value. Negative values clamp to 0.
//
//sfa:noalloc
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	h.buckets[i].Inc()
	h.sum.Add(v)
}

// HistogramSnapshot is a point-in-time copy of a Histogram, mergeable
// with Merge and summarizable with Quantile.
type HistogramSnapshot struct {
	Count int64
	Sum   int64
	// Buckets[i] counts observations with bits.Len64(v) == i
	// (v in [2^(i-1), 2^i); bucket 0 is v == 0).
	Buckets [NumBuckets]int64
}

// Snapshot returns a relaxed point-in-time copy.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Buckets[i] = n
		s.Count += n
	}
	s.Sum = h.sum.Load()
	return s
}

// Merge adds t's observations into s.
func (s *HistogramSnapshot) Merge(t HistogramSnapshot) {
	s.Count += t.Count
	s.Sum += t.Sum
	for i := range s.Buckets {
		s.Buckets[i] += t.Buckets[i]
	}
}

// BucketUpper returns the inclusive upper bound of bucket i: 2^i − 1
// (bucket 0 is exactly 0). The last bucket has no finite bound; it
// reports the same formula, which exposition treats as its le= edge
// before +Inf.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return int64(^uint64(0) >> 1)
	}
	return int64(uint64(1)<<uint(i)) - 1
}

// Quantile returns an upper bound on the q-quantile (q in [0,1]): the
// upper edge of the bucket the quantile falls in. Resolution is ×2 —
// good enough for "p99 compose latency is under 2^17 ns".
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(s.Count-1)) + 1
	var cum int64
	for i := range s.Buckets {
		cum += s.Buckets[i]
		if cum >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1)
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
