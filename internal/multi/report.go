package multi

import "sync"

// BuildReport is the structured account of one Compile/Recompile run:
// what the planner did (bins, splits, merges), where the shards came
// from (cache hits vs in-process constructions vs reload carry-over),
// and where the time went. It answers "why did this reload take 40 s"
// without a profiler attached.
type BuildReport struct {
	Rules  int `json:"rules"`
	Shards int `json:"shards"`
	// LazyShards counts shards served by on-demand construction (a
	// subset of Shards).
	LazyShards int `json:"lazy_shards,omitempty"`
	// PlanBins is the bin count the first-fit-decreasing packing
	// produced before splits and merges.
	PlanBins int `json:"plan_bins"`
	// Splits counts bin halvings forced by budget overruns during the
	// build; Merges/MergeFails count the consolidation pass's outcomes.
	Splits     int `json:"splits,omitempty"`
	Merges     int `json:"merges,omitempty"`
	MergeFails int `json:"merge_fails,omitempty"`
	// CacheHits counts shards adopted whole from the content-addressed
	// cache; Built counts in-process shard constructions that succeeded
	// (a committed merge included, attempts that overran a budget not);
	// ReusedShards counts Recompile carry-overs. EstCacheHits counts
	// per-rule size estimates served from the cache (the warm-plan fast
	// path).
	CacheHits    int `json:"cache_hits,omitempty"`
	Built        int `json:"built"`
	ReusedShards int `json:"reused_shards,omitempty"`
	EstCacheHits int `json:"est_cache_hits,omitempty"`
	// Phase timings. PrepNs covers per-rule DFA construction and size
	// estimation; BuildNs the plan→build→merge pipeline; TotalNs the
	// whole Compile/Recompile call. ShardBuildNs lists the wall time of
	// each successful in-process shard construction (unordered — builds
	// run concurrently on the construction pool). FailedNs sums the wall
	// time of the capped shard attempts that overran a budget, the ones
	// behind Splits and MergeFails. Both are spent inside BuildNs (bins
	// build concurrently, so either sum can exceed it), and a failed
	// attempt is in no ShardBuildNs entry.
	PrepNs       int64   `json:"prep_ns"`
	BuildNs      int64   `json:"build_ns"`
	TotalNs      int64   `json:"total_ns"`
	FailedNs     int64   `json:"failed_ns"`
	ShardBuildNs []int64 `json:"shard_build_ns,omitempty"`
}

// buildRecorder collects a BuildReport across the build pipeline's
// concurrent fan-out. It rides along as an unexported pointer field on
// Options — every by-value Options copy shares it — and is nil on paths
// that do not want a report (the planner's internal re-plans). A plain
// mutex is fine here: this is construction time, not the scan path.
type buildRecorder struct {
	mu sync.Mutex
	r  BuildReport
}

// note applies f under the lock; nil recorders no-op so call sites
// never need a guard.
func (b *buildRecorder) note(f func(*BuildReport)) {
	if b == nil {
		return
	}
	b.mu.Lock()
	f(&b.r)
	b.mu.Unlock()
}

// snapshot returns the collected report (with its own copy of the
// per-shard timing slice).
func (b *buildRecorder) snapshot() BuildReport {
	if b == nil {
		return BuildReport{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	r := b.r
	r.ShardBuildNs = append([]int64(nil), b.r.ShardBuildNs...)
	return r
}

// BuildReport returns the structured account of the Compile/Recompile
// call that produced this set.
func (s *Set) BuildReport() BuildReport { return s.report }
