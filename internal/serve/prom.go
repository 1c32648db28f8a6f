package serve

import (
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/multi"
	"repro/internal/obs"
	"repro/sfa"
)

// Prometheus rendering of the hub's metric surface — the same data the
// JSON /metrics document carries, reshaped for scraping: per-tenant
// traffic and hot-path scan histograms, build reports, pool scheduling,
// table budgets, and Go runtime series. GET /metrics negotiates between
// the two (JSON stays the default; see wantsProm).
//
// The exposition format requires every sample of one metric name to sit
// under a single # TYPE header, so this file is written metric-major:
// tenant rows are collected first, then each metric loops over them.

// promRow is one tenant's collected state, gathered up front so the
// metric-major emission loops below never re-lock the hub.
type promRow struct {
	name string
	tm   *TenantMetrics
	scan obs.ScanSnapshot

	resident bool
	gen      uint64
	rules    int
	shards   int
	tableB   int64
	pf       sfa.PrefilterStats
	build    sfa.BuildReport
	lazy     lazyTotals
	// infos/heat feed the per-shard attribution and per-rule heat rows
	// (heat arrives hottest-first from RuleSet.RuleHeat).
	infos []sfa.ShardInfo
	heat  []sfa.RuleHeat

	budget *sfa.TableBudget
}

// lazyTotals sums the lazy-shard cache counters across a set's shards.
type lazyTotals struct {
	shards    int
	resident  int64
	fills     int64
	evictions int64
}

func promRows(h *Hub) []promRow {
	m := h.Metrics()
	names := map[string]bool{}
	for _, n := range h.Names() {
		names[n] = true
	}
	for _, n := range m.tenantNames() {
		names[n] = true
	}
	rows := make([]promRow, 0, len(names))
	for n := range names {
		row := promRow{name: n, tm: m.Tenant(n)}
		row.scan = row.tm.Scan.Snapshot()
		if b, ok := h.Tenant(n); ok {
			rs, gen := b.Snapshot()
			row.resident = true
			row.gen = gen
			row.rules = rs.Len()
			row.shards = rs.NumShards()
			row.pf = rs.PrefilterStats()
			row.build = rs.BuildReport()
			row.infos = rs.Shards()
			row.heat = rs.RuleHeat()
			for _, sh := range row.infos {
				row.tableB += sh.TableBytes
				if sh.Lazy {
					row.lazy.shards++
					row.lazy.resident += sh.ResidentBytes
					row.lazy.fills += sh.Fills
					row.lazy.evictions += sh.Evictions
				}
			}
		}
		row.budget = h.tenantBudgetIfAny(n)
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	return rows
}

// writeProm renders the full exposition document.
func writeProm(w io.Writer, h *Hub) error {
	p := obs.NewPromWriter(w)
	m := h.Metrics()
	rows := promRows(h)

	p.Gauge("sfa_uptime_seconds", "Seconds since the hub started.",
		time.Since(m.start).Seconds())
	p.Gauge("sfa_process_start_time_seconds", "Unix time the hub started, for uptime math and deploy correlation.",
		float64(m.start.Unix()))
	commit, gover := buildInfo()
	p.Gauge("sfa_build_info", "Constant 1; the labels identify the running build.",
		1, "commit", commit, "go_version", gover)

	// Restore / persistence.
	p.Counter("sfa_restore_warm_total", "Tenants restored whole from snapshot.", m.warmLoads.Load())
	p.Counter("sfa_restore_rebuilt_total", "Tenants restored via snapshot plus Rebuild.", m.rebuiltLoads.Load())
	p.Counter("sfa_restore_cold_total", "Tenants restored by compiling rule text.", m.coldBuilds.Load())
	p.Counter("sfa_persist_errors_total", "Failed state-directory writes.", m.persistErrors.Load())
	if st := h.State(); st != nil {
		cs := st.Cache().Stats()
		p.Counter("sfa_shard_cache_hits_total", "Shard cache loads served from disk.", cs.Hits)
		p.Counter("sfa_shard_cache_misses_total", "Shard cache lookups that built instead.", cs.Misses)
		p.Counter("sfa_shard_cache_stores_total", "Shards written to the cache.", cs.Stores)
		p.Counter("sfa_shard_cache_errors_total", "Shard cache I/O errors.", cs.Errors)
		p.Gauge("sfa_shard_cache_entries", "Shards currently cached on disk.", float64(cs.Entries))
		p.Gauge("sfa_shard_cache_bytes", "On-disk shard cache footprint.", float64(cs.Bytes))
	}

	// Tenant traffic counters (persist across reloads and delete/re-add).
	for _, r := range rows {
		p.Gauge("sfa_tenant_resident", "1 when the tenant currently serves rules, 0 when only its history remains.",
			b2f(r.resident), "tenant", r.name)
	}
	for _, r := range rows {
		p.Counter("sfa_tenant_scans_total", "Completed scan requests.", r.tm.Scans.Load(), "tenant", r.name)
	}
	for _, r := range rows {
		p.Counter("sfa_tenant_scan_bytes_total", "Bytes scanned.", r.tm.ScanBytes.Load(), "tenant", r.name)
	}
	for _, r := range rows {
		p.Counter("sfa_tenant_reloads_total", "Successful hot reloads.", r.tm.Reloads.Load(), "tenant", r.name)
	}
	for _, r := range rows {
		p.Counter("sfa_tenant_shards_reused_total", "Shards carried across reloads.", r.tm.ShardsReused.Load(), "tenant", r.name)
	}
	for _, r := range rows {
		p.Counter("sfa_tenant_shards_rebuilt_total", "Shards rebuilt by reloads.", r.tm.ShardsRebuilt.Load(), "tenant", r.name)
	}
	for _, r := range rows {
		p.Counter("sfa_tenant_slow_scans_total", "Scan requests over the slow-scan threshold.", r.tm.SlowScans.Load(), "tenant", r.name)
	}

	// Hot-path scan stats (engine-recorded; survive reloads).
	for _, r := range rows {
		p.Counter("sfa_scan_chunks_total", "Chunks composed by the tenant's automata.", r.scan.Chunks, "tenant", r.name)
	}
	for _, r := range rows {
		p.Counter("sfa_scan_chunk_bytes_total", "Bytes walked by chunk composition.", r.scan.ChunkBytes, "tenant", r.name)
	}
	for _, r := range rows {
		p.Histogram("sfa_scan_compose_ns", "Per-chunk compose latency (log2 buckets, nanoseconds).", r.scan.ComposeNs, "tenant", r.name)
	}
	for _, r := range rows {
		p.Histogram("sfa_scan_chunk_size_bytes", "Composed chunk sizes (log2 buckets, bytes).", r.scan.ChunkSize, "tenant", r.name)
	}

	// Scan-handler stage latencies (HTTP layer).
	for _, r := range rows {
		p.Histogram("sfa_scan_read_ns", "Per-request wall time reading the scan body.", r.tm.ReadNs.Snapshot(), "tenant", r.name)
	}
	for _, r := range rows {
		p.Histogram("sfa_scan_match_ns", "Per-request wall time matching the scan body.", r.tm.MatchNs.Snapshot(), "tenant", r.name)
	}

	// Resident-generation shape.
	for _, r := range rows {
		if r.resident {
			p.Gauge("sfa_tenant_generation", "Current rule-set generation (1 = initial load).", float64(r.gen), "tenant", r.name)
		}
	}
	for _, r := range rows {
		if r.resident {
			p.Gauge("sfa_tenant_rules", "Rules in the current generation.", float64(r.rules), "tenant", r.name)
		}
	}
	for _, r := range rows {
		if r.resident {
			p.Gauge("sfa_tenant_shards", "Combined shards in the current generation.", float64(r.shards), "tenant", r.name)
		}
	}
	for _, r := range rows {
		if r.resident {
			p.Gauge("sfa_tenant_table_bytes", "Resident match-table bytes.", float64(r.tableB), "tenant", r.name)
		}
	}

	// Per-shard cost attribution, per-rule match heat, and the
	// speculation-viability coverage gauges — all under cardinality caps
	// (see writePromAttribution).
	writePromAttribution(p, rows)

	// Prefilter cascade. The dynamic counters reset on reload (they
	// belong to the generation), which Prometheus counters tolerate.
	writePromPrefilter(p, rows)

	// Build report of the generation currently serving.
	writePromBuild(p, rows)

	// Lazy-shard cache behaviour plus table budgets.
	writePromLazy(p, h, rows)

	// Engine worker pools: the scan pool and the construction pool.
	writePromPools(p,
		poolRow{"match", engine.DefaultPool().Stats()},
		poolRow{"build", multi.BuildPoolStats()})

	obs.WriteRuntimeMetrics(p)
	return p.Flush()
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

// writePromAttribution emits the per-shard cost account, the boundary
// top-k coverage gauges, and the per-rule match heat, metric-major.
func writePromAttribution(p *obs.PromWriter, rows []promRow) {
	shardCounter := func(name, help string, v func(sfa.ShardInfo) int64) {
		for _, r := range rows {
			if !r.resident {
				continue
			}
			var other int64
			for i, sh := range r.infos {
				if i < promShardCap {
					p.Counter(name, help, v(sh), "tenant", r.name, "shard", strconv.Itoa(i))
				} else {
					other += v(sh)
				}
			}
			if len(r.infos) > promShardCap {
				p.Counter(name, help, other, "tenant", r.name, "shard", "other")
			}
		}
	}
	shardCounter("sfa_shard_compose_ns_total", "Wall time this shard's engine spent composing chunks and one-shot scans.",
		func(s sfa.ShardInfo) int64 { return s.ComposeNs })
	shardCounter("sfa_shard_scan_chunks_total", "Chunks and one-shot scans that reached this shard's automaton.",
		func(s sfa.ShardInfo) int64 { return s.ScanChunks })
	shardCounter("sfa_shard_scan_bytes_total", "Bytes this shard's automaton actually walked.",
		func(s sfa.ShardInfo) int64 { return s.ScanBytes })
	shardCounter("sfa_shard_candidate_windows_total", "Prefilter candidate windows this shard verified.",
		func(s sfa.ShardInfo) int64 { return s.CandWindows })

	// Boundary-state concentration per eager shard: the fraction of
	// chunk boundaries covered by the k hottest states, k ∈ {1,4,8} —
	// the ROADMAP's speculation-viability readout. Only shards that
	// recorded samples emit (the table fills via WithScanStats, which
	// the hub attaches per tenant).
	for _, r := range rows {
		if !r.resident {
			continue
		}
		for i, sh := range r.infos {
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
				p.Gauge("sfa_shard_boundary_topk_coverage",
					"Fraction of chunk boundaries landing in the shard's k hottest states.",
					obs.TopKCoverage(sh.HotStates, sh.HotOther, k),
					"tenant", r.name, "shard", strconv.Itoa(i), "k", strconv.Itoa(k))
			}
		}
	}

	// Per-rule match heat: hottest first, capped; the tail sums into
	// rule="_other". Rules with zero matches emit nothing.
	for _, r := range rows {
		if !r.resident {
			continue
		}
		var other int64
		emitted := 0
		for _, rh := range r.heat {
			if rh.Matches == 0 {
				break // heat is sorted descending: the rest are zero too
			}
			if emitted < promRuleCap {
				p.Counter("sfa_rule_matches_total", "Verdicts that reported this rule matched.",
					rh.Matches, "tenant", r.name, "rule", rh.Name)
				emitted++
			} else {
				other += rh.Matches
			}
		}
		if other > 0 {
			p.Counter("sfa_rule_matches_total", "Verdicts that reported this rule matched.",
				other, "tenant", r.name, "rule", "_other")
		}
	}
}

func writePromPrefilter(p *obs.PromWriter, rows []promRow) {
	res := func(r promRow) bool { return r.resident && r.pf.Enabled }
	for _, r := range rows {
		if res(r) {
			p.Gauge("sfa_prefilter_literals", "Distinct literals the cascade matches.", float64(r.pf.Literals), "tenant", r.name, "stage", r.pf.Stage)
		}
	}
	for _, r := range rows {
		if res(r) {
			p.Counter("sfa_prefilter_matcher_calls_total", "Literal matcher invocations.", r.pf.MatcherCalls, "tenant", r.name)
		}
	}
	for _, r := range rows {
		if res(r) {
			p.Counter("sfa_prefilter_matcher_bytes_total", "Input bytes swept by the literal matcher.", r.pf.MatcherBytes, "tenant", r.name)
		}
	}
	for _, r := range rows {
		if res(r) {
			p.Counter("sfa_prefilter_matcher_hits_total", "Literal occurrences surfaced.", r.pf.MatcherHits, "tenant", r.name)
		}
	}
	for _, r := range rows {
		if res(r) {
			p.Counter("sfa_prefilter_candidate_bytes_total", "Bytes the automata actually walked.", r.pf.CandidateBytes, "tenant", r.name)
		}
	}
	for _, r := range rows {
		if res(r) {
			p.Counter("sfa_prefilter_total_bytes_total", "Bytes the automata would have walked unfiltered.", r.pf.TotalBytes, "tenant", r.name)
		}
	}
	for _, r := range rows {
		if res(r) {
			p.Counter("sfa_prefilter_shards_skipped_total", "One-shot shard scans skipped outright.", r.pf.ShardsSkipped, "tenant", r.name)
		}
	}
	for _, r := range rows {
		if res(r) {
			p.Counter("sfa_prefilter_chunks_skipped_total", "Window-shard blocks with no candidate work.", r.pf.ChunksSkipped, "tenant", r.name)
		}
	}
	for _, r := range rows {
		if res(r) {
			p.Counter("sfa_prefilter_chunks_scanned_total", "Window-shard blocks with candidate windows.", r.pf.ChunksScanned, "tenant", r.name)
		}
	}
	for _, r := range rows {
		if res(r) {
			p.Counter("sfa_prefilter_bypass_blocks_total", "Blocks that skipped the literal matcher and walked every window shard whole.", r.pf.BypassedBlocks, "tenant", r.name)
		}
	}
	for _, r := range rows {
		if res(r) {
			p.Counter("sfa_prefilter_bypass_bytes_total", "Bytes of the blocks that bypassed the literal matcher.", r.pf.BypassedBytes, "tenant", r.name)
		}
	}
	for _, r := range rows {
		if res(r) {
			const help = "Smoothed measured cost of each block arm; 0 until the arm has run a block of 4 KiB or more."
			p.Gauge("sfa_prefilter_arm_cost_ns_per_kib", help, float64(r.pf.CascadeNsPerKiB), "tenant", r.name, "arm", "cascade")
			p.Gauge("sfa_prefilter_arm_cost_ns_per_kib", help, float64(r.pf.WholeNsPerKiB), "tenant", r.name, "arm", "whole")
		}
	}
}

func writePromBuild(p *obs.PromWriter, rows []promRow) {
	type g struct {
		name, help string
		v          func(sfa.BuildReport) float64
	}
	gauges := []g{
		{"sfa_build_plan_bins", "Bins the planner's first-fit packing produced.", func(b sfa.BuildReport) float64 { return float64(b.PlanBins) }},
		{"sfa_build_splits", "Bin halvings forced by budget overruns.", func(b sfa.BuildReport) float64 { return float64(b.Splits) }},
		{"sfa_build_merges", "Shard merges the consolidation pass committed.", func(b sfa.BuildReport) float64 { return float64(b.Merges) }},
		{"sfa_build_merge_fails", "Shard merges abandoned over budget.", func(b sfa.BuildReport) float64 { return float64(b.MergeFails) }},
		{"sfa_build_cache_hits", "Shards adopted whole from the on-disk cache.", func(b sfa.BuildReport) float64 { return float64(b.CacheHits) }},
		{"sfa_build_built_shards", "Shards constructed in-process.", func(b sfa.BuildReport) float64 { return float64(b.Built) }},
		{"sfa_build_reused_shards", "Shards carried over from the previous generation.", func(b sfa.BuildReport) float64 { return float64(b.ReusedShards) }},
		{"sfa_build_lazy_shards", "Shards compiled for on-demand construction.", func(b sfa.BuildReport) float64 { return float64(b.LazyShards) }},
		{"sfa_build_prep_ns", "Wall time preparing rules (parse, per-rule DFA, size estimates).", func(b sfa.BuildReport) float64 { return float64(b.PrepNs) }},
		{"sfa_build_build_ns", "Wall time in the plan/build/merge pipeline.", func(b sfa.BuildReport) float64 { return float64(b.BuildNs) }},
		{"sfa_build_failed_ns", "Wall time of capped shard attempts that overran a budget (splits and failed merges).", func(b sfa.BuildReport) float64 { return float64(b.FailedNs) }},
		{"sfa_build_total_ns", "Wall time of the whole build that produced this generation.", func(b sfa.BuildReport) float64 { return float64(b.TotalNs) }},
	}
	for _, gg := range gauges {
		for _, r := range rows {
			if r.resident {
				p.Gauge(gg.name, gg.help, gg.v(r.build), "tenant", r.name)
			}
		}
	}
}

func writePromLazy(p *obs.PromWriter, h *Hub, rows []promRow) {
	for _, r := range rows {
		if r.resident && r.lazy.shards > 0 {
			p.Gauge("sfa_lazy_shards", "Shards materializing product states on demand.", float64(r.lazy.shards), "tenant", r.name)
		}
	}
	for _, r := range rows {
		if r.resident && r.lazy.shards > 0 {
			p.Gauge("sfa_lazy_resident_bytes", "Bytes lazy shards currently charge to the table budget.", float64(r.lazy.resident), "tenant", r.name)
		}
	}
	for _, r := range rows {
		if r.resident && r.lazy.shards > 0 {
			p.Counter("sfa_lazy_fills_total", "Lazy product states materialized since build.", r.lazy.fills, "tenant", r.name)
		}
	}
	for _, r := range rows {
		if r.resident && r.lazy.shards > 0 {
			p.Counter("sfa_lazy_evictions_total", "Whole-structure resets under budget pressure.", r.lazy.evictions, "tenant", r.name)
		}
	}

	// Budget nodes: the hub root plus each tenant child, distinguished by
	// the budget label ("hub" is reserved; tenant names label their own
	// children).
	type node struct {
		label string
		st    sfa.BudgetStats
	}
	var nodes []node
	if tb := h.TableBudget(); tb != nil {
		nodes = append(nodes, node{"hub", tb.Stats()})
	}
	for _, r := range rows {
		if r.budget != nil {
			nodes = append(nodes, node{r.name, r.budget.Stats()})
		}
	}
	for _, n := range nodes {
		p.Gauge("sfa_budget_limit_bytes", "Configured table-budget limit (<= 0 unlimited).", float64(n.st.LimitBytes), "budget", n.label)
	}
	for _, n := range nodes {
		p.Gauge("sfa_budget_resident_bytes", "Bytes currently charged under this budget node.", float64(n.st.UsedBytes), "budget", n.label)
	}
	for _, n := range nodes {
		p.Counter("sfa_budget_fills_total", "Lazy fills charged under this node.", n.st.Fills, "budget", n.label)
	}
	for _, n := range nodes {
		p.Counter("sfa_budget_evictions_total", "Evictions forced under this node.", n.st.Evictions, "budget", n.label)
	}
	for _, n := range nodes {
		p.Counter("sfa_budget_stall_ns_total", "Scan wall time spent inside eviction (budget pressure).", n.st.StallNs, "budget", n.label)
	}
	for _, n := range nodes {
		p.Histogram("sfa_budget_fill_ns", "Per-fill construction latency.", n.st.FillNs, "budget", n.label)
	}
	for _, n := range nodes {
		p.Histogram("sfa_budget_evict_ns", "Per-eviction latency.", n.st.EvictNs, "budget", n.label)
	}
}

// poolRow pairs one engine pool's label with its stats snapshot.
type poolRow struct {
	label string
	st    engine.PoolStats
}

// writePromPools emits the pool series metric-major so both pools'
// samples for one metric stay contiguous under its single header.
func writePromPools(p *obs.PromWriter, pools ...poolRow) {
	type g struct {
		name, help string
		v          func(engine.PoolStats) float64
	}
	for _, gg := range []g{
		{"sfa_pool_workers", "Persistent worker goroutines.", func(s engine.PoolStats) float64 { return float64(s.Workers) }},
		{"sfa_pool_queue_len", "Requests queued right now.", func(s engine.PoolStats) float64 { return float64(s.QueueLen) }},
		{"sfa_pool_queue_cap", "Queue capacity.", func(s engine.PoolStats) float64 { return float64(s.QueueCap) }},
		{"sfa_pool_queue_max", "High-water queue depth.", func(s engine.PoolStats) float64 { return float64(s.QueueMax) }},
	} {
		for _, pr := range pools {
			p.Gauge(gg.name, gg.help, gg.v(pr.st), "pool", pr.label)
		}
	}
	type c struct {
		name, help string
		v          func(engine.PoolStats) int64
	}
	for _, cc := range []c{
		{"sfa_pool_submitted_total", "Chunk requests submitted to the queue.", func(s engine.PoolStats) int64 { return s.Submitted }},
		{"sfa_pool_inline_total", "Chunk requests run inline on a full queue.", func(s engine.PoolStats) int64 { return s.Inline }},
		{"sfa_pool_helped_total", "Chunk requests stolen by waiting submitters.", func(s engine.PoolStats) int64 { return s.Helped }},
		{"sfa_pool_busy_ns_total", "Worker wall time executing requests.", func(s engine.PoolStats) int64 { return s.BusyNs }},
		{"sfa_pool_idle_ns_total", "Worker wall time parked waiting for work.", func(s engine.PoolStats) int64 { return s.IdleNs }},
	} {
		for _, pr := range pools {
			p.Counter(cc.name, cc.help, cc.v(pr.st), "pool", pr.label)
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
