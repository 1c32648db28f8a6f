package main

// The metric tables are the single source of truth for names, units,
// directions and regression bounds; schema_test.go asserts that
// BENCHMARK.json at the repo root says the same.

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression; 0 for
	// per-layer metrics, which are informational.
	Bound float64
	// Doc is the one-line definition printed in the glossary.
	Doc string
	// Moves names the end-to-end metric (and workload) a per-layer
	// metric should move; empty for end-to-end metrics.
	Moves string
}

// endToEnd lists the metrics every workload reports with tracing off.
// The driver's contract wants every end-to-end metric on every workload
// and never 0, so these are defined over "ops" of any kind; the README
// maps them to the per-workload names (scan_mbps, req_per_s, build_ms…).
//
// The bounds come from five passes of ten runs per workload on the
// 2-vCPU box (README, "Noise and bounds"): the box's speed moves by
// 10–27 % over minutes to hours, and even with the best-window estimator
// the spread over ten runs reached 13 % on scan_lazy and, in a disturbed
// hour, 20 % on every timing metric of serve_small. A bound must sit
// above that, which for every timing metric leaves the driver's cap of
// 25 %.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "median of 3 cold set-ups, from inputs generated to first verified op done (rule-set build; serve_*: spawn, listening, PUT rules, first 200 scan; scan_lazy: includes the first scan's on-demand fills)"},
	{Name: "mbps", Unit: "MB/s", Better: "higher", Bound: 0.25,
		Doc: "verified input bytes per second over all callers, best window (build: snapshot-sized tables built or loaded per second)"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "verified ops per second over all callers, best window (serve_*: 200 replies per second)"},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "median op latency of the best window (serve_*: send to body fully read)"},
	{Name: "op_tail_us", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "tail op latency: p90 of each window, best window"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25,
		Doc: "utime+stime of the process doing the matching (/proc/<pid>/stat; the spawned server for serve_*) per attempted op, read at every window boundary, best window"},
	{Name: "retained_mb", Unit: "MB", Better: "lower", Bound: 0.08,
		Doc: "what the compiled rule set keeps alive: HeapAlloc after set-up + one op + 2 GCs minus the reading before set-up (serve_*: the server's VmRSS after the timed run)"},
	{Name: "ok_ratio", Unit: "ratio", Better: "higher", Bound: 0.001,
		Doc: "verified ops / attempted ops; 1 minus the fail ratio (failed, refused, timed-out and wrong-verdict ops), kept non-zero for the driver"},
}

// perLayer lists the metrics of the traced run. Names are
// <module>.<metric>; a workload that does not exercise a layer reports 0
// for its rows.
var perLayer = []metricDef{
	{Name: "engine.dfa_walk_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: "the roofline every ratio divides by",
		Doc: "DFASequential.Final on the probe DFA over the workload's corpus"},
	{Name: "engine.sfa_walk_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: "mbps on scan_dense",
		Doc: "SFAParallel.Match, p=1, probe D-SFA over the corpus"},
	{Name: "engine.compose_chunk_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: "mbps on stream_chunks, stream_compose",
		Doc: "64 KiB SFAParallel.ComposeChunk on the probe"},
	{Name: "engine.compose_chunk_fixed_ns", Unit: "ns", Better: "lower", Moves: "op_p50_us on serve_small",
		Doc: "1-byte ComposeChunk: dispatch + ComposeVec"},
	{Name: "engine.match_mask_from_ns", Unit: "ns", Better: "lower", Moves: "op_p50_us on serve_small",
		Doc: "AcceptedFrom on a carried probe mapping"},
	{Name: "engine.p2_speedup", Unit: "ratio", Better: "higher", Moves: "reported, not gated (2-vCPU box)",
		Doc: "whole-set scan rate at WithThreads(2) / WithThreads(1)"},
	{Name: "engine.pool_tasks_per_scan", Unit: "count", Better: "lower", Moves: "cpu_us_per_op on scan_*",
		Doc: "engine.DefaultPool().Stats() submitted+inline delta per scan"},

	{Name: "core.compose_vec_ns", Unit: "ns", Better: "lower", Moves: "mbps on stream_compose, stream_chunks",
		Doc: "core.ComposeVec on |D|-long probe vectors"},
	{Name: "core.build_dsfa_ms", Unit: "ms", Better: "lower", Moves: "op_p50_us on build; setup_s",
		Doc: "core.BuildDSFA on the probe DFA"},
	{Name: "core.dsfa_states", Unit: "count", Better: "lower", Moves: "retained_mb",
		Doc: "live states of the probe D-SFA"},
	{Name: "core.lazy_fills", Unit: "count", Better: "lower", Moves: "setup_s on scan_lazy",
		Doc: "TableBudget fills during the cold set-up (build + first scan)"},
	{Name: "core.lazy_fills_per_scan", Unit: "count", Better: "lower", Moves: "mbps on scan_lazy",
		Doc: "TableBudget fills per steady-state scan"},
	{Name: "core.lazy_evictions", Unit: "count", Better: "lower", Moves: "op_tail_us on scan_lazy",
		Doc: "TableBudget evictions over the probe's scans (cold + steady)"},
	{Name: "core.lazy_resident_mb", Unit: "MB", Better: "lower", Moves: "retained_mb on scan_lazy",
		Doc: "TableBudget bytes resident after the probe's scans"},
	{Name: "core.lazy_stall_ms", Unit: "ms", Better: "lower", Moves: "op_tail_us on scan_lazy",
		Doc: "TableBudget eviction stall over the probe's scans"},

	{Name: "prefilter.match_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: "mbps on scan_sparse",
		Doc: "Extract + NewMatcher(lits).AppendHits alone over the corpus"},
	{Name: "prefilter.hits_per_mib", Unit: "count", Better: "lower", Moves: "mbps on scan_dense",
		Doc: "literal hits per MiB of corpus"},
	{Name: "prefilter.candidate_byte_ratio", Unit: "ratio", Better: "lower", Moves: "mbps on scan_sparse, stream_chunks",
		Doc: "bytes still given to the automaton / bytes (RuleSet.PrefilterStats delta)"},
	{Name: "prefilter.extract_us", Unit: "us", Better: "lower", Moves: "setup_s",
		Doc: "syntax.Parse + prefilter.Extract over the whole rule set"},

	{Name: "multi.scan_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: "mbps on scan_*",
		Doc: "RuleSet.MatchMask over the corpus (separate pass)"},
	{Name: "multi.scan_noprefilter_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: "mbps on scan_dense",
		Doc: "the sfa.WithoutPrefilter() twin: the automaton-only pass"},
	{Name: "multi.shards", Unit: "count", Better: "lower", Moves: "mbps on scan_*",
		Doc: "combined shards of the rule set"},
	{Name: "multi.table_mb", Unit: "MB", Better: "lower", Moves: "retained_mb",
		Doc: "summed resident match-table bytes (RuleSet.Shards)"},
	{Name: "multi.plan_ms", Unit: "ms", Better: "lower", Moves: "op_p50_us on build; setup_s",
		Doc: "BuildReport.PrepNs of the cold build: per-rule DFAs and size estimates, the planner's input"},
	{Name: "multi.product_ms", Unit: "ms", Better: "lower", Moves: "op_p50_us on build; setup_s",
		Doc: "BuildReport.BuildNs of the cold build: plan, product construction, merge"},
	{Name: "multi.max_shard_build_ms", Unit: "ms", Better: "lower", Moves: "op_p50_us on build",
		Doc: "slowest in-process shard construction of the cold build"},
	{Name: "multi.built_shards", Unit: "count", Better: "lower", Moves: "op_p50_us on build",
		Doc: "shards constructed by the one-rule reload"},
	{Name: "multi.reused_shards", Unit: "count", Better: "higher", Moves: "op_p50_us on build",
		Doc: "shards carried over by the one-rule reload"},
	{Name: "multi.stream_write_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: "mbps on stream_chunks, serve_large",
		Doc: "64 KiB RuleStream.Write"},
	{Name: "multi.stream_write_fixed_ns", Unit: "ns", Better: "lower", Moves: "op_p50_us on serve_small",
		Doc: "1-byte RuleStream.Write"},
	{Name: "multi.stream_chunks_skipped_ratio", Unit: "ratio", Better: "higher", Moves: "mbps on stream_chunks",
		Doc: "shard-chunks the prefilter skipped / shard-chunks seen (StreamStats)"},
	{Name: "multi.newstream_us", Unit: "us", Better: "lower", Moves: "op_p50_us, cpu_us_per_op on serve_small",
		Doc: "RuleSet.NewStream"},
	{Name: "multi.newstream_allocs", Unit: "count", Better: "lower", Moves: "cpu_us_per_op on serve_small",
		Doc: "heap allocations per RuleSet.NewStream"},

	{Name: "syntax.parse_us", Unit: "us", Better: "lower", Moves: "op_p50_us on build; setup_s",
		Doc: "syntax.Parse, summed over the rule set"},
	{Name: "nfa.glushkov_us", Unit: "us", Better: "lower", Moves: "op_p50_us on build; setup_s",
		Doc: "nfa.Glushkov, summed over the rule set"},
	{Name: "dfa.determinize_ms", Unit: "ms", Better: "lower", Moves: "op_p50_us on build; setup_s",
		Doc: "dfa.Determinize, summed over the rule set"},
	{Name: "dfa.minimize_ms", Unit: "ms", Better: "lower", Moves: "op_p50_us on build; setup_s",
		Doc: "dfa.Minimize, summed over the rule set"},
	{Name: "dfa.states_total", Unit: "count", Better: "lower", Moves: "op_p50_us on build",
		Doc: "minimal-DFA live states, summed over the rule set"},

	{Name: "snapshot.save_ms", Unit: "ms", Better: "lower", Moves: "op_p50_us on build",
		Doc: "RuleSet.Save"},
	{Name: "snapshot.bytes_mb", Unit: "MB", Better: "lower", Moves: "op_p50_us on build",
		Doc: "snapshot size"},
	{Name: "snapshot.load_ns_per_byte", Unit: "ns/B", Better: "lower", Moves: "op_p50_us on build",
		Doc: "LoadRuleSet time per snapshot byte"},

	{Name: "sfa.scan_x_walker", Unit: "ratio", Better: "lower", Moves: "mbps on scan_*",
		Doc: "whole-set scan ns/byte / engine.dfa_walk_ns_per_byte: the multiple of the raw walker"},
	{Name: "sfa.matchmask_allocs_per_op", Unit: "count", Better: "lower", Moves: "cpu_us_per_op on scan_*",
		Doc: "MemStats.Mallocs delta per MatchMask"},
	{Name: "sfa.stream_write_allocs_per_op", Unit: "count", Better: "lower", Moves: "cpu_us_per_op on stream_chunks",
		Doc: "MemStats.Mallocs delta per 64 KiB RuleStream.Write"},
	{Name: "sfa.stream_mbps", Unit: "MB/s", Better: "higher", Moves: "mbps on stream_chunks",
		Doc: "in-order message rate from the traced run's sfa.RuleStream spans (Write + Mask + Reset)"},
	{Name: "sfa.compose_mbps", Unit: "MB/s", Better: "higher", Moves: "mbps on stream_compose",
		Doc: "out-of-order message rate from the traced run's spans (4 segment writes + 3 Compose folds + Mask)"},
	{Name: "sfa.build_ms", Unit: "ms", Better: "lower", Moves: "op_p50_us on build",
		Doc: "median cold NewRuleSetFromDefs span of the build cycle"},
	{Name: "sfa.warm_load_ms", Unit: "ms", Better: "lower", Moves: "op_p50_us on build",
		Doc: "median LoadRuleSet span of the build cycle"},
	{Name: "sfa.reload_ms", Unit: "ms", Better: "lower", Moves: "op_p50_us on build",
		Doc: "median one-rule Rebuild span of the build cycle"},

	{Name: "serve.handler_us", Unit: "us", Better: "lower", Moves: "op_p50_us, ops_per_s, cpu_us_per_op on serve_small",
		Doc: "the workload's requests through serve.NewHandler with an httptest recorder, no socket"},
	{Name: "serve.net_us", Unit: "us", Better: "lower", Moves: "op_p50_us on serve_small",
		Doc: "request span minus handler span on the in-process loopback replica: HTTP + socket self time"},
	{Name: "serve.newstream_us", Unit: "us", Better: "lower", Moves: "op_p50_us on serve_small",
		Doc: "Ruleboard.NewStream + Close"},
	{Name: "serve.read_us", Unit: "us", Better: "lower", Moves: "op_p50_us on serve_large",
		Doc: "mean ReadNs of the replica's /debug/scans records for the recorder-driven requests"},
	{Name: "serve.match_us", Unit: "us", Better: "lower", Moves: "op_p50_us on serve_large",
		Doc: "mean MatchNs of the same records: Write + Names inside the handler"},
	{Name: "serve.prefilter_us", Unit: "us", Better: "lower", Moves: "op_p50_us on serve_large",
		Doc: "mean PrefilterNs of the same records (part of match_us)"},
	{Name: "serve.compose_us", Unit: "us", Better: "lower", Moves: "op_p50_us on serve_large",
		Doc: "mean ComposeNs of the same records (part of match_us)"},
	{Name: "serve.names_us", Unit: "us", Better: "lower", Moves: "op_p50_us on serve_small",
		Doc: "Stream.Names after a body (part of match_us)"},
	{Name: "serve.reply_encode_us", Unit: "us", Better: "lower", Moves: "op_p50_us on serve_small",
		Doc: "JSON-encoding a ScanReply into a recorder"},
	{Name: "serve.unaccounted_us", Unit: "us", Better: "lower", Moves: "op_p50_us on serve_small",
		Doc: "handler_us minus newstream_us, read_us, match_us and reply_encode_us: routing, limits, counters, flight record"},
	{Name: "serve.spawned_match_us", Unit: "us", Better: "lower", Moves: "cpu_us_per_op on serve_*",
		Doc: "mean MatchNs of the spawned server's own /debug/scans records"},
	{Name: "serve.req_p99_us", Unit: "us", Better: "lower", Moves: "op_tail_us on serve_*",
		Doc: "p99 request latency on the spawned server, pooled over the layer probe's windows; too noisy on a shared box for an end-to-end bound"},
	{Name: "serve.rule_put_ms", Unit: "ms", Better: "lower", Moves: "setup_s on serve_*",
		Doc: "PUT /v1/tenants/ids round trip on the spawned server"},
	{Name: "serve.peak_rss_mb", Unit: "MB", Better: "lower", Moves: "retained_mb on serve_*",
		Doc: "the spawned server's VmHWM after the traced windows"},

	{Name: "obs.instrumented_write_x", Unit: "ratio", Better: "lower", Moves: "mbps on stream_chunks, serve_large",
		Doc: "64 KiB RuleStream.Write with WithScanStats + one FlightRecorder.Record per write / plain"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: "none: the cost of the bench-side spans",
		Doc: "ops_per_s of the traced windows against untraced windows of the same run"},
	{Name: "trace.spans", Unit: "count", Better: "higher", Moves: "none",
		Doc: "spans kept in bench/out/trace.<workload>.json"},
	{Name: "trace.harness_self_us", Unit: "us", Better: "lower", Moves: "none: what the numbers include beside the system",
		Doc: "self time of the op span per op: verification and loop overhead of the benchmark itself"},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// value is one reported number in the driver's output format.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the last line of standard output, exactly as the
// driver's contract spells it.
type driverLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}
