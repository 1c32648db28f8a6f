package serve

import (
	"io"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/sfa"
)

// The Prometheus rendering of the hub's metric surface: every sfa_*
// family declared once, in emission order, read from one collected
// metricsSnap. GET /metrics negotiates between this and the JSON
// document (JSON stays the default; see wantsProm). A family's type
// follows its value (obs.Value): int64 samples make a counter, float64
// a gauge, obs.HistogramSnapshot a histogram. Adding a metric is one row
// here plus one row in docs/observability.md's catalogue, which
// TestMetricCatalogue holds to this table.

type promFamily = obs.Family[*metricsSnap]

// writeProm renders the full exposition document.
func writeProm(w io.Writer, h *Hub) error {
	return obs.WriteProm(w, collect(h), promFamilies)
}

var promFamilies = append([]promFamily{
	hubWide("sfa_uptime_seconds", "Seconds since the hub started.", func(s *metricsSnap) float64 { return s.uptime }),
	hubWide("sfa_process_start_time_seconds", "Unix time the hub started, for uptime math and deploy correlation.", func(s *metricsSnap) float64 { return float64(s.start.Unix()) }),
	{Name: "sfa_build_info", Kind: obs.KindGauge, Help: "Constant 1; the labels identify the running build.", Read: func(_ *metricsSnap, out *obs.Samples) {
		commit, gover := buildInfo()
		obs.Add(out, 1.0, "commit", commit, "go_version", gover)
	}},

	// Restore / persistence.
	hubWide("sfa_restore_warm_total", "Tenants restored whole from snapshot.", func(s *metricsSnap) int64 { return s.warmLoads }),
	hubWide("sfa_restore_rebuilt_total", "Tenants restored via snapshot plus Rebuild.", func(s *metricsSnap) int64 { return s.rebuiltLoads }),
	hubWide("sfa_restore_cold_total", "Tenants restored by compiling rule text.", func(s *metricsSnap) int64 { return s.coldBuilds }),
	hubWide("sfa_persist_errors_total", "Failed state-directory writes.", func(s *metricsSnap) int64 { return s.persistErrors }),
	shardCache("sfa_shard_cache_hits_total", "Shard cache loads served from disk.", func(c *snapshot.Stats) int64 { return c.Hits }),
	shardCache("sfa_shard_cache_misses_total", "Shard cache lookups that built instead.", func(c *snapshot.Stats) int64 { return c.Misses }),
	shardCache("sfa_shard_cache_stores_total", "Shards written to the cache.", func(c *snapshot.Stats) int64 { return c.Stores }),
	shardCache("sfa_shard_cache_errors_total", "Shard cache I/O errors.", func(c *snapshot.Stats) int64 { return c.Errors }),
	shardCache("sfa_shard_cache_entries", "Shards currently cached on disk.", func(c *snapshot.Stats) float64 { return float64(c.Entries) }),
	shardCache("sfa_shard_cache_bytes", "On-disk shard cache footprint.", func(c *snapshot.Stats) float64 { return float64(c.Bytes) }),

	// Tenant traffic counters (persist across reloads and delete/re-add).
	perTenant("sfa_tenant_resident", "1 when the tenant currently serves rules, 0 when only its history remains.", anyTenant, func(t *tenantSnap) float64 { return b2f(t.resident) }),
	perTenant("sfa_tenant_scans_total", "Completed scan requests.", anyTenant, func(t *tenantSnap) int64 { return t.scans }),
	perTenant("sfa_tenant_scan_bytes_total", "Bytes scanned.", anyTenant, func(t *tenantSnap) int64 { return t.scanBytes }),
	perTenant("sfa_tenant_reloads_total", "Successful hot reloads.", anyTenant, func(t *tenantSnap) int64 { return t.reloads }),
	perTenant("sfa_tenant_shards_reused_total", "Shards carried across reloads.", anyTenant, func(t *tenantSnap) int64 { return t.shardsReused }),
	perTenant("sfa_tenant_shards_rebuilt_total", "Shards rebuilt by reloads.", anyTenant, func(t *tenantSnap) int64 { return t.shardsRebuilt }),
	perTenant("sfa_tenant_slow_scans_total", "Scan requests over the slow-scan threshold.", anyTenant, func(t *tenantSnap) int64 { return t.slowScans }),
	// Hub-wide, not per tenant: the tenant of a 404 is a name the client
	// chose.
	{Name: "sfa_scan_rejected_total", Kind: obs.KindCounter, Help: "Scan requests answered with an error status, by status code.", Read: func(s *metricsSnap, out *obs.Samples) {
		for _, r := range s.rejected {
			obs.Add(out, r.n, "code", strconv.Itoa(r.code))
		}
	}},

	// Hot-path scan stats (engine-recorded; survive reloads), then the
	// scan handler's stage latencies.
	perTenant("sfa_scan_chunks_total", "Chunks composed by the tenant's automata.", anyTenant, func(t *tenantSnap) int64 { return t.scan.Chunks }),
	perTenant("sfa_scan_chunk_bytes_total", "Bytes walked by chunk composition.", anyTenant, func(t *tenantSnap) int64 { return t.scan.ChunkBytes }),
	perTenant("sfa_scan_compose_ns", "Per-chunk compose latency (log2 buckets, nanoseconds).", anyTenant, func(t *tenantSnap) obs.HistogramSnapshot { return t.scan.ComposeNs }),
	perTenant("sfa_scan_chunk_size_bytes", "Composed chunk sizes (log2 buckets, bytes).", anyTenant, func(t *tenantSnap) obs.HistogramSnapshot { return t.scan.ChunkSize }),
	perTenant("sfa_scan_read_ns", "Per-request wall time reading the scan body.", anyTenant, func(t *tenantSnap) obs.HistogramSnapshot { return t.readNs }),
	perTenant("sfa_scan_match_ns", "Per-request wall time matching the scan body.", anyTenant, func(t *tenantSnap) obs.HistogramSnapshot { return t.matchNs }),

	// Resident-generation shape.
	perTenant("sfa_tenant_generation", "Current rule-set generation (1 = initial load).", resident, func(t *tenantSnap) float64 { return float64(t.gen) }),
	perTenant("sfa_tenant_rules", "Rules in the current generation.", resident, func(t *tenantSnap) float64 { return float64(t.rules) }),
	perTenant("sfa_tenant_shards", "Combined shards in the current generation.", resident, func(t *tenantSnap) float64 { return float64(t.shards) }),
	perTenant("sfa_tenant_table_bytes", "Match-table bytes built so far (product-DFA tables, plus D-SFA tables once a walk needed them).", resident, func(t *tenantSnap) float64 { return float64(t.tableBytes) }),

	// Per-shard cost attribution, the speculation-viability coverage
	// gauges and per-rule match heat, all under the cardinality caps.
	perShard("sfa_shard_compose_ns_total", "Wall time this shard's engine spent composing chunks and one-shot scans.", func(sh *sfa.ShardInfo) int64 { return sh.ComposeNs }),
	perShard("sfa_shard_scan_chunks_total", "Chunks and one-shot scans that reached this shard's automaton.", func(sh *sfa.ShardInfo) int64 { return sh.ScanChunks }),
	perShard("sfa_shard_scan_bytes_total", "Bytes this shard's automaton actually walked.", func(sh *sfa.ShardInfo) int64 { return sh.ScanBytes }),
	perShard("sfa_shard_candidate_windows_total", "Prefilter candidate windows this shard verified.", func(sh *sfa.ShardInfo) int64 { return sh.CandWindows }),
	{Name: "sfa_shard_boundary_topk_coverage", Kind: obs.KindGauge, Help: "Fraction of chunk boundaries landing in the shard's k hottest states.", Read: readTopKCoverage},
	{Name: "sfa_rule_matches_total", Kind: obs.KindCounter, Help: "Verdicts that reported this rule matched.", Read: readRuleHeat},

	// Prefilter cascade. The dynamic counters reset on reload (they
	// belong to the generation), which Prometheus counters tolerate.
	{Name: "sfa_prefilter_literals", Kind: obs.KindGauge, Help: "Distinct literals the cascade matches.", Read: func(s *metricsSnap, out *obs.Samples) {
		for i := range s.tenants {
			if t := &s.tenants[i]; prefiltered(t) {
				obs.Add(out, float64(t.pf.Literals), "tenant", t.name, "stage", t.pf.Stage)
			}
		}
	}},
	perTenant("sfa_prefilter_matcher_calls_total", "Literal matcher invocations.", prefiltered, func(t *tenantSnap) int64 { return t.pf.MatcherCalls }),
	perTenant("sfa_prefilter_matcher_bytes_total", "Input bytes swept by the literal matcher.", prefiltered, func(t *tenantSnap) int64 { return t.pf.MatcherBytes }),
	perTenant("sfa_prefilter_matcher_hits_total", "Literal occurrences surfaced.", prefiltered, func(t *tenantSnap) int64 { return t.pf.MatcherHits }),
	perTenant("sfa_prefilter_candidate_bytes_total", "Bytes the automata actually walked.", prefiltered, func(t *tenantSnap) int64 { return t.pf.CandidateBytes }),
	perTenant("sfa_prefilter_total_bytes_total", "Bytes the automata would have walked unfiltered.", prefiltered, func(t *tenantSnap) int64 { return t.pf.TotalBytes }),
	perTenant("sfa_prefilter_shards_skipped_total", "One-shot shard scans skipped outright.", prefiltered, func(t *tenantSnap) int64 { return t.pf.ShardsSkipped }),
	perTenant("sfa_prefilter_chunks_skipped_total", "Window-shard blocks with no candidate work.", prefiltered, func(t *tenantSnap) int64 { return t.pf.ChunksSkipped }),
	perTenant("sfa_prefilter_chunks_scanned_total", "Window-shard blocks with candidate windows.", prefiltered, func(t *tenantSnap) int64 { return t.pf.ChunksScanned }),
	perTenant("sfa_prefilter_bypass_blocks_total", "Blocks that skipped the literal matcher and walked every window shard whole.", prefiltered, func(t *tenantSnap) int64 { return t.pf.BypassedBlocks }),
	perTenant("sfa_prefilter_bypass_bytes_total", "Bytes of the blocks that bypassed the literal matcher.", prefiltered, func(t *tenantSnap) int64 { return t.pf.BypassedBytes }),
	{Name: "sfa_prefilter_arm_cost_ns_per_kib", Kind: obs.KindGauge, Help: "Smoothed measured cost of each block arm; 0 until the arm has run a block of 4 KiB or more.", Read: func(s *metricsSnap, out *obs.Samples) {
		for i := range s.tenants {
			if t := &s.tenants[i]; prefiltered(t) {
				obs.Add(out, float64(t.pf.CascadeNsPerKiB), "tenant", t.name, "arm", "cascade")
				obs.Add(out, float64(t.pf.WholeNsPerKiB), "tenant", t.name, "arm", "whole")
			}
		}
	}},

	// Build report of the generation currently serving.
	perTenant("sfa_build_plan_bins", "Bins the planner's first-fit packing produced.", resident, func(t *tenantSnap) float64 { return float64(t.build.PlanBins) }),
	perTenant("sfa_build_splits", "Bin halvings forced by budget overruns.", resident, func(t *tenantSnap) float64 { return float64(t.build.Splits) }),
	perTenant("sfa_build_merges", "Shard merges the consolidation pass committed.", resident, func(t *tenantSnap) float64 { return float64(t.build.Merges) }),
	perTenant("sfa_build_merge_fails", "Shard merges abandoned over budget.", resident, func(t *tenantSnap) float64 { return float64(t.build.MergeFails) }),
	perTenant("sfa_build_cache_hits", "Shards adopted whole from the on-disk cache.", resident, func(t *tenantSnap) float64 { return float64(t.build.CacheHits) }),
	perTenant("sfa_build_built_shards", "Shards constructed in-process.", resident, func(t *tenantSnap) float64 { return float64(t.build.Built) }),
	perTenant("sfa_build_reused_shards", "Shards carried over from the previous generation.", resident, func(t *tenantSnap) float64 { return float64(t.build.ReusedShards) }),
	perTenant("sfa_build_lazy_shards", "Shards compiled for on-demand construction.", resident, func(t *tenantSnap) float64 { return float64(t.build.LazyShards) }),
	perTenant("sfa_build_prep_ns", "Wall time preparing rules (parse, per-rule DFA, size estimates).", resident, func(t *tenantSnap) float64 { return float64(t.build.PrepNs) }),
	perTenant("sfa_build_build_ns", "Wall time in the plan/build/merge pipeline.", resident, func(t *tenantSnap) float64 { return float64(t.build.BuildNs) }),
	perTenant("sfa_build_failed_ns", "Wall time of capped shard attempts that overran a budget (splits and failed merges).", resident, func(t *tenantSnap) float64 { return float64(t.build.FailedNs) }),
	perTenant("sfa_build_total_ns", "Wall time of the whole build that produced this generation.", resident, func(t *tenantSnap) float64 { return float64(t.build.TotalNs) }),

	// Lazy-shard cache behaviour, then the table-budget nodes.
	perTenant("sfa_lazy_shards", "Shards materializing product states on demand.", hasLazy, func(t *tenantSnap) float64 { return float64(t.lazy.shards) }),
	perTenant("sfa_lazy_resident_bytes", "Bytes lazy shards currently charge to the table budget.", hasLazy, func(t *tenantSnap) float64 { return float64(t.lazy.resident) }),
	perTenant("sfa_lazy_fills_total", "Lazy product states materialized since build.", hasLazy, func(t *tenantSnap) int64 { return t.lazy.fills }),
	perTenant("sfa_lazy_evictions_total", "Whole-structure resets under budget pressure.", hasLazy, func(t *tenantSnap) int64 { return t.lazy.evictions }),
	perBudget("sfa_budget_limit_bytes", "Configured table-budget limit (<= 0 unlimited).", func(b *sfa.BudgetStats) float64 { return float64(b.LimitBytes) }),
	perBudget("sfa_budget_resident_bytes", "Bytes currently charged under this budget node.", func(b *sfa.BudgetStats) float64 { return float64(b.UsedBytes) }),
	perBudget("sfa_budget_fills_total", "Lazy fills charged under this node.", func(b *sfa.BudgetStats) int64 { return b.Fills }),
	perBudget("sfa_budget_evictions_total", "Evictions forced under this node.", func(b *sfa.BudgetStats) int64 { return b.Evictions }),
	perBudget("sfa_budget_stall_ns_total", "Scan wall time spent inside eviction (budget pressure).", func(b *sfa.BudgetStats) int64 { return b.StallNs }),
	perBudget("sfa_budget_fill_ns", "Per-fill construction latency.", func(b *sfa.BudgetStats) obs.HistogramSnapshot { return b.FillNs }),
	perBudget("sfa_budget_evict_ns", "Per-eviction latency.", func(b *sfa.BudgetStats) obs.HistogramSnapshot { return b.EvictNs }),

	// Engine worker pools: the scan pool and the construction pool.
	perPool("sfa_pool_workers", "Persistent worker goroutines.", func(p *engine.PoolStats) float64 { return float64(p.Workers) }),
	perPool("sfa_pool_queue_len", "Requests queued right now.", func(p *engine.PoolStats) float64 { return float64(p.QueueLen) }),
	perPool("sfa_pool_queue_cap", "Queue capacity.", func(p *engine.PoolStats) float64 { return float64(p.QueueCap) }),
	perPool("sfa_pool_queue_max", "High-water queue depth.", func(p *engine.PoolStats) float64 { return float64(p.QueueMax) }),
	perPool("sfa_pool_submitted_total", "Chunk requests submitted to the queue.", func(p *engine.PoolStats) int64 { return p.Submitted }),
	perPool("sfa_pool_inline_total", "Chunk requests run inline on a full queue.", func(p *engine.PoolStats) int64 { return p.Inline }),
	perPool("sfa_pool_helped_total", "Chunk requests stolen by waiting submitters.", func(p *engine.PoolStats) int64 { return p.Helped }),
	perPool("sfa_pool_busy_ns_total", "Worker wall time executing requests.", func(p *engine.PoolStats) int64 { return p.BusyNs }),
	perPool("sfa_pool_idle_ns_total", "Worker wall time parked waiting for work.", func(p *engine.PoolStats) int64 { return p.IdleNs }),
}, obs.RuntimeFamilies[*metricsSnap]()...)

// hubWide declares a family with one unlabelled sample.
func hubWide[V obs.Value](name, help string, v func(*metricsSnap) V) promFamily {
	return promFamily{Name: name, Kind: obs.KindOf[V](), Help: help, Read: func(s *metricsSnap, out *obs.Samples) {
		obs.Add(out, v(s))
	}}
}

// shardCache declares a shard-cache family: one sample with a state
// dir, none without.
func shardCache[V obs.Value](name, help string, v func(*snapshot.Stats) V) promFamily {
	return promFamily{Name: name, Kind: obs.KindOf[V](), Help: help, Read: func(s *metricsSnap, out *obs.Samples) {
		if s.store != nil {
			obs.Add(out, v(s.store))
		}
	}}
}

// perTenant declares a family with one tenant-labelled sample for each
// tenant keep admits.
func perTenant[V obs.Value](name, help string, keep func(*tenantSnap) bool, v func(*tenantSnap) V) promFamily {
	return promFamily{Name: name, Kind: obs.KindOf[V](), Help: help, Read: func(s *metricsSnap, out *obs.Samples) {
		for i := range s.tenants {
			if t := &s.tenants[i]; keep(t) {
				obs.Add(out, v(t), "tenant", t.name)
			}
		}
	}}
}

// Tenant filters for perTenant. A tenant that is not resident has zero
// prefilter stats and no lazy shards.
func anyTenant(*tenantSnap) bool     { return true }
func resident(t *tenantSnap) bool    { return t.resident }
func prefiltered(t *tenantSnap) bool { return t.pf.Enabled }
func hasLazy(t *tenantSnap) bool     { return t.lazy.shards > 0 }

// perBudget declares a family with one sample per table-budget node:
// budget="hub" for the hub-wide root, then each tenant's child under
// its name ("hub" is reserved).
func perBudget[V obs.Value](name, help string, v func(*sfa.BudgetStats) V) promFamily {
	return promFamily{Name: name, Kind: obs.KindOf[V](), Help: help, Read: func(s *metricsSnap, out *obs.Samples) {
		if s.budget != nil {
			obs.Add(out, v(s.budget), "budget", "hub")
		}
		for i := range s.tenants {
			if t := &s.tenants[i]; t.budget != nil {
				obs.Add(out, v(t.budget), "budget", t.name)
			}
		}
	}}
}

// perPool declares a family with one pool-labelled sample per engine
// worker pool.
func perPool[V obs.Value](name, help string, v func(*engine.PoolStats) V) promFamily {
	return promFamily{Name: name, Kind: obs.KindOf[V](), Help: help, Read: func(s *metricsSnap, out *obs.Samples) {
		for i := range s.pools {
			obs.Add(out, v(&s.pools[i].st), "pool", s.pools[i].label)
		}
	}}
}

// Label-cardinality caps for the attribution series. Shard indices are
// already bounded in practice (the planner produces a handful), but a
// pathological set could shard per rule; everything past the cap is
// summed into shard="other" so totals stay exact. Rule series exist
// only for rules that actually matched, the hottest promRuleCap of
// them; the rest aggregate into rule="_other" ("_" cannot start a rule
// name, so the sentinel cannot collide). Both caps are documented in
// docs/observability.md — change them there too.
const (
	promShardCap = 64
	promRuleCap  = 32
)

// perShard declares a per-shard cost counter of the resident tenants,
// labelled {tenant, shard} up to promShardCap shards.
func perShard(name, help string, v func(*sfa.ShardInfo) int64) promFamily {
	return promFamily{Name: name, Kind: obs.KindCounter, Help: help, Read: func(s *metricsSnap, out *obs.Samples) {
		for i := range s.tenants {
			t := &s.tenants[i]
			var other int64
			for j := range t.infos {
				if j < promShardCap {
					obs.Add(out, v(&t.infos[j]), "tenant", t.name, "shard", strconv.Itoa(j))
				} else {
					other += v(&t.infos[j])
				}
			}
			if len(t.infos) > promShardCap {
				obs.Add(out, other, "tenant", t.name, "shard", "other")
			}
		}
	}}
}

// readTopKCoverage reads the boundary-state concentration per eager
// shard: the fraction of chunk boundaries covered by the k hottest
// states, k ∈ {1,4,8} — the ROADMAP's speculation-viability readout.
// Only shards that recorded samples emit (the table fills via
// WithScanStats, which the hub attaches per tenant).
func readTopKCoverage(s *metricsSnap, out *obs.Samples) {
	for ti := range s.tenants {
		t := &s.tenants[ti]
		for i, sh := range t.infos {
			if i >= promShardCap || sh.Lazy {
				continue
			}
			samples := sh.HotOther
			for _, sc := range sh.HotStates {
				samples += sc.Count
			}
			if samples == 0 {
				continue
			}
			for _, k := range []int{1, 4, 8} {
				obs.Add(out, obs.TopKCoverage(sh.HotStates, sh.HotOther, k),
					"tenant", t.name, "shard", strconv.Itoa(i), "k", strconv.Itoa(k))
			}
		}
	}
}

// readRuleHeat reads per-rule match heat: hottest first, capped; the
// tail sums into rule="_other". Rules with zero matches emit nothing.
func readRuleHeat(s *metricsSnap, out *obs.Samples) {
	for i := range s.tenants {
		t := &s.tenants[i]
		var other int64
		emitted := 0
		for _, rh := range t.heat {
			if rh.Matches == 0 {
				break // heat is sorted descending: the rest are zero too
			}
			if emitted < promRuleCap {
				obs.Add(out, rh.Matches, "tenant", t.name, "rule", rh.Name)
				emitted++
			} else {
				other += rh.Matches
			}
		}
		if other > 0 {
			obs.Add(out, other, "tenant", t.name, "rule", "_other")
		}
	}
}

// buildInfo resolves the vcs commit and Go version baked into the
// running binary, once; "unknown" when built without vcs stamping
// (e.g. `go test` or a non-repo build).
var buildInfoOnce = sync.OnceValues(func() (string, string) {
	commit, gover := "unknown", runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.GoVersion != "" {
			gover = bi.GoVersion
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				commit = s.Value
			}
		}
	}
	return commit, gover
})

func buildInfo() (commit, goVersion string) { return buildInfoOnce() }

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
